package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// postShard POSTs a shard request and decodes the NDJSON stream. Every
// line must be byte-identical to json.Marshal of the ShardLine it
// decodes to, and DecodeShardLine must decode it exactly as
// json.Unmarshal does.
func postShard(t *testing.T, ts *httptest.Server, req ShardRequest) (*http.Response, []ShardLine) {
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
	var lines []ShardLine
	if resp.StatusCode == http.StatusOK {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() {
			var line ShardLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("shard stream line %q: %v", sc.Bytes(), err)
			}
			if want, _ := json.Marshal(line); !bytes.Equal(sc.Bytes(), want) {
				t.Fatalf("shard stream line\n got %s\nwant %s", sc.Bytes(), want)
			}
			if got, err := DecodeShardLine(sc.Bytes()); err != nil || !reflect.DeepEqual(got, line) {
				t.Fatalf("DecodeShardLine(%s) = %+v, %v; json.Unmarshal gives %+v", sc.Bytes(), got, err, line)
			}
			lines = append(lines, line)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return resp, lines
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
}

func TestShardStreamsRangeWithTerminalEOF(t *testing.T) {
	_, ts := newTestServer(t, Config{EnableShards: true})
	params := *campaignReq(20).Campaign
	req := ShardRequest{Campaign: params, Lo: 5, Hi: 15, Key: shardKey(t, params)}
	resp, lines := postShard(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if len(lines) != 11 {
		t.Fatalf("got %d stream lines, want 10 records + EOF", len(lines))
	}
	last := lines[len(lines)-1]
	if !last.EOF || last.Sent != 10 {
		t.Fatalf("terminal line = %+v, want EOF with Sent=10", last)
	}
	for i, line := range lines[:10] {
		if line.Rec == nil {
			t.Fatalf("line %d is not a record: %+v", i, line)
		}
		if line.Rec.Index != req.Lo+i {
			t.Fatalf("record %d has index %d, want %d (in-order range)", i, line.Rec.Index, req.Lo+i)
		}
		if line.Rec.Key != req.Key {
			t.Fatalf("record %d carries key %s, want %s", i, line.Rec.Key, req.Key)
		}
	}

	// Determinism across executions: the same range streams the same
	// bytes — the property every fabric re-lease and dedupe rests on.
	_, again := postShard(t, ts, req)
	a, _ := json.Marshal(lines)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Fatal("re-running the same shard produced different records")
	}
}

func TestShardSkipListSuppressesDoneTrials(t *testing.T) {
	_, ts := newTestServer(t, Config{EnableShards: true})
	params := *campaignReq(20).Campaign
	req := ShardRequest{Campaign: params, Lo: 5, Hi: 15, Skip: []int{6, 9, 14}, Key: shardKey(t, params)}
	resp, lines := postShard(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	last := lines[len(lines)-1]
	if !last.EOF || last.Sent != 7 {
		t.Fatalf("terminal line = %+v, want EOF with Sent=7", last)
	}
	seen := map[int]bool{}
	for _, line := range lines[:len(lines)-1] {
		seen[line.Rec.Index] = true
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

// TestShardLineCodecMatchesJSON pins the shard wire format to
// encoding/json in both directions, on the lines a worker writes and
// on ones it never does: AppendRecordLine writes what a json.Encoder
// writes for ShardLine{Rec: rec}, and DecodeShardLine decodes any line
// as json.Unmarshal does.
func TestShardLineCodecMatchesJSON(t *testing.T) {
	recs := []campaign.TrialRecord{
		{Key: "k", Prog: "p", Seed: 7, Index: 3, Space: "int-reg", Reg: 4, Bit: 9, Step: 12, Detected: true, Attempts: 1, Outcome: "benign"},
		{Key: "k", Prog: "p", Seed: 7, Index: 4, Space: "mem", Addr: 65544, Attempts: 2, Err: "site <bad> & \"quoted\"", AttemptErrs: []string{"a b"}},
	}
	var lines [][]byte
	for i := range recs {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ShardLine{Rec: &recs[i]}); err != nil {
			t.Fatal(err)
		}
		got := AppendRecordLine(nil, &recs[i])
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendRecordLine\n got %s\nwant %s", got, want.Bytes())
		}
		lines = append(lines, bytes.TrimSuffix(got, []byte("\n")))
	}
	canon := string(lines[0])
	for _, s := range []string{
		`{"eof":true,"sent":10}`,
		`{"err":"boom"}`,
		`{"rec":null}`,
		`{"rec":{"key":"k"}}`,
		`{"rec":{"key":"k"} }`,
		`{"rec":{"key":"k"},"eof":true}`,
		`{"rec":{"key":"k"},"rec":null}`,
		`{"rec":{"key":"k","i":"x"}}`,
		`{"rec":{"key":"k"}`,
		canon[:len(canon)-1],
		canon + "}",
		` ` + canon,
		`not json`,
	} {
		lines = append(lines, []byte(s))
	}
	for _, raw := range lines {
		var want ShardLine
		werr := json.Unmarshal(raw, &want)
		got, gerr := DecodeShardLine(raw)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeShardLine(%s) = %+v, %v; json.Unmarshal gives %+v, %v", raw, got, gerr, want, werr)
		}
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
// is the per-record AppendRecordLine bytes of the single-node
// checkpoint's records, then {"eof":true,"sent":n}.
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
	var want []byte
	for _, line := range bytes.SplitAfter(ref, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec campaign.TrialRecord
		if err := rec.DecodeJSON(line[:len(line)-1]); err != nil {
			t.Fatal(err)
		}
		want = AppendRecordLine(want, &rec)
	}
	want = append(want, fmt.Sprintf(`{"eof":true,"sent":%d}`+"\n", n)...)

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
		t.Fatalf("shard body (%d bytes) differs from the per-record lines of the single-node checkpoint (%d bytes)", w.Body.Len(), len(want))
	}
}
