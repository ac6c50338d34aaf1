package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cmlasu/unsync/internal/campaign"
)

// shardKey derives the params key the coordinator would send for req.
func shardKey(t *testing.T, params CampaignParams) string {
	t.Helper()
	prog, err := params.Program()
	if err != nil {
		t.Fatal(err)
	}
	return params.Spec().Key(campaign.ProgHash(prog))
}

// shardStream is a decoded 200 shard response: its records in stream
// order, its terminal line and the raw body.
type shardStream struct {
	recs []campaign.TrialRecord
	last ShardLine
	body []byte
}

// postShard POSTs a shard request and decodes the stream. Every line
// but the last must be a record in the checkpoint's line format
// (TrialRecord.AppendJSON), and the last must be a terminal line
// byte-identical to json.Marshal of the ShardLine it decodes to.
func postShard(t *testing.T, ts *httptest.Server, req ShardRequest) (*http.Response, shardStream) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/shards", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st shardStream
	if resp.StatusCode != http.StatusOK {
		return resp, st
	}
	if st.body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(st.body, []byte("\n"))
	if len(lines) < 2 || len(lines[len(lines)-1]) != 0 {
		t.Fatalf("shard stream %q does not end in a terminal line", st.body)
	}
	lines = lines[:len(lines)-1]
	for _, line := range lines[:len(lines)-1] {
		var rec campaign.TrialRecord
		canon, err := rec.DecodeKeyed(line[:len(line)-1], "", "")
		if err != nil || !canon || rec.Key == "" {
			t.Fatalf("shard stream line %q: not a canonical record (%v)", line, err)
		}
		st.recs = append(st.recs, rec)
	}
	last := bytes.TrimSuffix(lines[len(lines)-1], []byte("\n"))
	if err := json.Unmarshal(last, &st.last); err != nil {
		t.Fatalf("terminal line %q: %v", last, err)
	}
	if want, _ := json.Marshal(st.last); !bytes.Equal(last, want) {
		t.Fatalf("terminal line\n got %s\nwant %s", last, want)
	}
	return resp, st
}

func TestShardsDisabledWithoutWorkerMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	params := *campaignReq(10).Campaign
	resp, _ := postShard(t, ts, ShardRequest{Campaign: params, Lo: 0, Hi: 10, Key: shardKey(t, params)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("shards on a non-worker node: status %d, want 404", resp.StatusCode)
	}
}

func TestShardKeyMismatchIs409(t *testing.T) {
	_, ts := newTestServer(t, Config{EnableShards: true})
	params := *campaignReq(10).Campaign
	resp, _ := postShard(t, ts, ShardRequest{Campaign: params, Lo: 0, Hi: 10, Key: "0000000000000000"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched params key: status %d, want 409", resp.StatusCode)
	}
}

func TestShardRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{EnableShards: true})
	params := *campaignReq(10).Campaign
	key := shardKey(t, params)
	for _, tc := range []struct {
		name string
		req  ShardRequest
	}{
		{"inverted-range", ShardRequest{Campaign: params, Lo: 5, Hi: 5, Key: key}},
		{"past-trial-space", ShardRequest{Campaign: params, Lo: 0, Hi: 11, Key: key}},
		{"negative-lo", ShardRequest{Campaign: params, Lo: -1, Hi: 5, Key: key}},
		{"missing-key", ShardRequest{Campaign: params, Lo: 0, Hi: 10}},
		{"bad-params", ShardRequest{Campaign: CampaignParams{Prog: "no-such-prog", Trials: 10}, Lo: 0, Hi: 10, Key: key}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postShard(t, ts, tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
	t.Run("trial-timeout", func(t *testing.T) {
		b, err := json.Marshal(ShardRequest{Campaign: params, Lo: 0, Hi: 10, Key: key})
		if err != nil {
			t.Fatal(err)
		}
		b = bytes.Replace(b, []byte(`"campaign":{`), []byte(`"campaign":{"`+retiredField+`":50,`), 1)
		status, body := postRaw(t, ts.URL+"/api/v1/shards", string(b))
		if status != http.StatusBadRequest || !strings.Contains(body, retiredField) {
			t.Fatalf("status %d body %s, want 400 naming %s", status, body, retiredField)
		}
	})
}

func TestShardStreamsRangeWithTerminalEOF(t *testing.T) {
	_, ts := newTestServer(t, Config{EnableShards: true})
	params := *campaignReq(20).Campaign
	req := ShardRequest{Campaign: params, Lo: 5, Hi: 15, Key: shardKey(t, params)}
	resp, st := postShard(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if len(st.recs) != 10 {
		t.Fatalf("got %d records, want 10 before the EOF", len(st.recs))
	}
	if !st.last.EOF || st.last.Sent != 10 {
		t.Fatalf("terminal line = %+v, want EOF with Sent=10", st.last)
	}
	for i, rec := range st.recs {
		if rec.Index != req.Lo+i {
			t.Fatalf("record %d has index %d, want %d (in-order range)", i, rec.Index, req.Lo+i)
		}
		if rec.Key != req.Key {
			t.Fatalf("record %d carries key %s, want %s", i, rec.Key, req.Key)
		}
	}

	// Determinism across executions: the same range streams the same
	// bytes — the property every fabric re-lease and dedupe rests on.
	_, again := postShard(t, ts, req)
	if !bytes.Equal(st.body, again.body) {
		t.Fatal("re-running the same shard produced different records")
	}
}

func TestShardSkipListSuppressesDoneTrials(t *testing.T) {
	_, ts := newTestServer(t, Config{EnableShards: true})
	params := *campaignReq(20).Campaign
	req := ShardRequest{Campaign: params, Lo: 5, Hi: 15, Skip: []int{6, 9, 14}, Key: shardKey(t, params)}
	resp, st := postShard(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if !st.last.EOF || st.last.Sent != 7 {
		t.Fatalf("terminal line = %+v, want EOF with Sent=7", st.last)
	}
	seen := map[int]bool{}
	for _, rec := range st.recs {
		seen[rec.Index] = true
	}
	for _, skipped := range req.Skip {
		if seen[skipped] {
			t.Errorf("skipped trial %d was streamed anyway", skipped)
		}
	}
	if len(seen) != 7 {
		t.Fatalf("streamed %d distinct indices, want 7", len(seen))
	}
}

// countingWriter records a handler's response and counts its Write and
// Flush calls.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes, flushes int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

func (w *countingWriter) Flush() {
	w.flushes++
	w.ResponseRecorder.Flush()
}

// A shard stream is written one journal chunk at a time: at most one
// Write and one Flush per chunk plus the terminal line's, and the body
// is the single-node checkpoint of the same range byte for byte, then
// {"eof":true,"sent":n}.
func TestShardWritesOncePerChunk(t *testing.T) {
	const n = 4096
	s, _ := newTestServer(t, Config{EnableShards: true})
	params := *campaignReq(n).Campaign
	params.Workers = 1 // chunks in trial-index order, as in the checkpoint

	prog, err := params.Program()
	if err != nil {
		t.Fatal(err)
	}
	spec := params.Spec()
	spec.Checkpoint = filepath.Join(t.TempDir(), "ref.jsonl")
	if _, err := campaign.RunContext(context.Background(), prog, spec); err != nil {
		t.Fatal(err)
	}
	ref, err := os.ReadFile(spec.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	want := append(ref, fmt.Sprintf(`{"eof":true,"sent":%d}`+"\n", n)...)

	body, err := json.Marshal(ShardRequest{Campaign: params, Lo: 0, Hi: n, Key: shardKey(t, params)})
	if err != nil {
		t.Fatal(err)
	}
	w := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/shards", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", w.Code, w.Body.Bytes())
	}
	limit := (n+campaign.DefaultBatch-1)/campaign.DefaultBatch + 1
	if w.writes > limit || w.flushes > limit {
		t.Fatalf("%d writes and %d flushes for %d trials, want at most %d each (one per chunk, one for the terminal line)",
			w.writes, w.flushes, n, limit)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("shard body (%d bytes) differs from the single-node checkpoint plus its EOF line (%d bytes)", w.Body.Len(), len(want))
	}
}
