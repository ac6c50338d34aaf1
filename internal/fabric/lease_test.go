package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/serve"
	"github.com/cmlasu/unsync/internal/stream"
)

// newTestCoordinator opens a coordinator over a fresh journal without
// running it; the caller closes it.
func newTestCoordinator(t testing.TB, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Workers == nil {
		cfg.Workers = []string{"http://x"}
	}
	if cfg.Journal == "" {
		cfg.Journal = filepath.Join(t.TempDir(), "fleet.jsonl")
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// synthRecord is a well-formed record for trial i of c's campaign.
func synthRecord(c *Coordinator, i int) campaign.TrialRecord {
	return campaign.TrialRecord{Key: c.key, Prog: c.progHash, Seed: 7, Index: i,
		Space: "int-reg", Reg: uint8(i % 32), Bit: 3, Step: uint64(10 + i), Attempts: 1, Outcome: "benign"}
}

// journaledTrials closes c and lists the trial indices its journal
// holds, ascending.
func journaledTrials(t *testing.T, c *Coordinator) []int {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var got []int
	st, err := replayJournal(c.cfg.Journal, c.key)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.done {
		got = append(got, i)
	}
	sort.Ints(got)
	return got
}

// The run ingest takes a whole received run under one lock: new trials
// are stored, observed and journaled; repeats are checked and counted;
// a differing repeat aborts the run; StopAfter caps what is taken.
func TestIngestRun(t *testing.T) {
	t.Run("repeat-and-new", func(t *testing.T) {
		plane, err := stream.NewPlane(stream.PlaneConfig{})
		if err != nil {
			t.Fatal(err)
		}
		c := newTestCoordinator(t, Config{Params: testParams(10), Plane: plane})
		if _, err := c.ingest([]campaign.TrialRecord{synthRecord(c, 0), synthRecord(c, 1)}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ingest([]campaign.TrialRecord{synthRecord(c, 1), synthRecord(c, 2)}, nil); err != nil {
			t.Fatalf("run with a bit-identical repeat: %v", err)
		}
		snap := c.Snapshot()
		if snap.Duplicates != 1 || snap.Done != 3 {
			t.Fatalf("snapshot %+v, want 1 duplicate and 3 done", snap)
		}
		if got := plane.Snapshot().Done; got != 3 {
			t.Fatalf("plane Done = %d, want 3", got)
		}
		if err := plane.Close(); err != nil {
			t.Fatal(err)
		}
		if got := journaledTrials(t, c); !slices.Equal(got, []int{0, 1, 2}) {
			t.Fatalf("journal holds trials %v, want [0 1 2]", got)
		}
	})

	t.Run("differing-repeat-mid-run", func(t *testing.T) {
		c := newTestCoordinator(t, Config{Params: testParams(10)})
		if _, err := c.ingest([]campaign.TrialRecord{synthRecord(c, 1)}, nil); err != nil {
			t.Fatal(err)
		}
		differing := synthRecord(c, 1)
		differing.Outcome = "sdc"
		_, err := c.ingest([]campaign.TrialRecord{synthRecord(c, 3), differing, synthRecord(c, 4)}, nil)
		if !errors.Is(err, errFatal) || !strings.Contains(err.Error(), "trial 1") {
			t.Fatalf("got %v, want errFatal naming trial 1", err)
		}
		if got := c.Snapshot().Done; got != 2 {
			t.Fatalf("Done = %d, want 2 (trial 1, then 3 before the violation)", got)
		}
		if got := journaledTrials(t, c); !slices.Equal(got, []int{1, 3}) {
			t.Fatalf("journal holds trials %v, want [1 3]: nothing after the violation", got)
		}
	})

	t.Run("stop-after-mid-run", func(t *testing.T) {
		params := testParams(10)
		c := newTestCoordinator(t, Config{Params: params, StopAfter: 3})
		run := make([]campaign.TrialRecord, 5)
		for i := range run {
			run[i] = synthRecord(c, i)
		}
		if _, err := c.ingest(run, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ingest([]campaign.TrialRecord{synthRecord(c, 7)}, nil); err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot().Done; got != 3 {
			t.Fatalf("Done = %d, want StopAfter = 3", got)
		}
		if got := journaledTrials(t, c); !slices.Equal(got, []int{0, 1, 2}) {
			t.Fatalf("journal holds trials %v, want exactly the first 3", got)
		}

		// A resumed coordinator counts exactly the journaled trials.
		r := newTestCoordinator(t, Config{Params: params, Journal: c.cfg.Journal, Resume: true})
		defer r.Close()
		if got := r.Snapshot().Done; got != 3 {
			t.Fatalf("resumed Done = %d, want 3", got)
		}
	})
}

// A worker that streams a record outside the leased range fails the
// lease, and the error names the index; it is never stored, so it
// cannot count toward completion.
func TestLeaseRejectsRecordOutsideRange(t *testing.T) {
	var c *Coordinator
	skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		in, out := synthRecord(c, req.Lo), synthRecord(c, req.Hi)
		b := serve.AppendRecordLine(nil, &in)
		b = serve.AppendRecordLine(b, &out)
		b = append(b, `{"eof":true,"sent":2}`+"\n"...)
		w.Write(b)
	}))
	t.Cleanup(skewed.Close)

	var log bytes.Buffer
	c = newTestCoordinator(t, Config{
		Workers:       []string{skewed.URL},
		Params:        testParams(10),
		Shards:        1,
		ShardAttempts: 1,
		Log:           &log,
	})
	_, err := c.Run(context.Background())
	if !errors.Is(err, errFatal) {
		t.Fatalf("run: %v, want the shard's attempts exhausted", err)
	}
	if !strings.Contains(log.String(), "record for trial 10 outside the leased range [0,10)") {
		t.Fatalf("lease failure does not name the index:\n%s", log.String())
	}
	if snap := c.Snapshot(); snap.Done != 1 || snap.Failures != 1 || snap.Complete {
		t.Fatalf("snapshot %+v, want trial 0 done and one failed lease", snap)
	}
}

// chunkReader hands out b in reads of the sizes cycled from sizes (each
// byte v reads v+1 bytes; all of b at once when sizes is empty), so runs
// split at every possible place.
type chunkReader struct {
	b     []byte
	sizes []byte
	n     int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	size := len(r.b)
	if len(r.sizes) > 0 {
		size = int(r.sizes[r.n%len(r.sizes)]) + 1
		r.n++
	}
	n := copy(p[:min(len(p), size)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// FuzzLeaseStreamTornTail cuts a valid shard stream — one of its lines
// longer than the reader's buffer — at an arbitrary byte and feeds it
// through the lease reader in arbitrary read sizes. The reader must
// ingest exactly the record lines completed before the cut and fail the
// lease as torn, or, given the whole stream, finish at its terminal
// line.
func FuzzLeaseStreamTornTail(f *testing.F) {
	const trials = 6
	// The stream's bytes depend only on the campaign key, which every
	// coordinator of testParams derives alike.
	var full []byte
	var ends []int // byte offset just past each record line
	{
		c := newTestCoordinator(f, Config{Params: testParams(trials)})
		for i := 0; i < trials; i++ {
			rec := synthRecord(c, i)
			if i == 2 {
				rec.Outcome, rec.Err = "", strings.Repeat("long harness error ", streamBuf/16)
			}
			full = serve.AppendRecordLine(full, &rec)
			ends = append(ends, len(full))
		}
		full = append(full, fmt.Sprintf(`{"eof":true,"sent":%d}`+"\n", trials)...)
		c.Close()
	}
	f.Add(uint32(len(full)), []byte{})
	f.Add(uint32(len(full)-1), []byte{7})
	f.Add(uint32(ends[1]+100), []byte{255, 3})
	f.Add(uint32(ends[2]-1), []byte{255})
	f.Add(uint32(ends[2]), []byte{0, 1, 2})
	f.Add(uint32(0), []byte{})
	f.Fuzz(func(t *testing.T, cut uint32, sizes []byte) {
		n := int(cut) % (len(full) + 1)
		c := newTestCoordinator(t, Config{Params: testParams(trials)})
		g := grant{s: &shard{id: 1, lo: 0, hi: trials}, lo: 0, hi: trials}
		err := c.readStream(&chunkReader{b: full[:n], sizes: sizes}, g, "http://w", func() {})
		want := 0
		for want < trials && ends[want] <= n {
			want++
		}
		if n == len(full) {
			if err != nil {
				t.Fatalf("whole stream: %v", err)
			}
		} else if err == nil || errors.Is(err, errFatal) || !strings.Contains(err.Error(), "torn") {
			t.Fatalf("cut at %d of %d: got %v, want a torn-stream lease failure", n, len(full), err)
		}
		if got := c.Snapshot().Done; got != want {
			t.Fatalf("cut at %d: %d trials ingested, want the %d complete record lines", n, got, want)
		}
		got := journaledTrials(t, c)
		if len(got) != want || (want > 0 && got[want-1] != want-1) {
			t.Fatalf("cut at %d: journal holds trials %v, want [0, %d)", n, got, want)
		}
	})
}
