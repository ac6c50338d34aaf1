package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/serve"
)

// testParams is the standard small campaign shared by the fabric
// tests; it matches the serve test campaign so golden-run cost stays
// low.
func testParams(trials int) serve.CampaignParams {
	return serve.CampaignParams{
		Prog:     "checksum",
		Scheme:   campaign.SchemeUnSync,
		Trials:   trials,
		Seed:     7,
		MaxSteps: 20_000,
		Workers:  2,
	}
}

// newWorker starts a worker-mode serve node, optionally wrapped by a
// failure-injecting middleware.
func newWorker(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{
		StateDir:      t.TempDir(),
		MaxConcurrent: 4,
		EnableShards:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(s.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// singleNodeRun executes the same campaign on one node with one worker
// (so its checkpoint journal is written in trial-index order) and
// returns the journal bytes and marshalled Result — the bit-identity
// reference for every fleet run.
func singleNodeRun(t *testing.T, params serve.CampaignParams) ([]byte, []byte) {
	t.Helper()
	prog, err := params.Program()
	if err != nil {
		t.Fatal(err)
	}
	spec := params.Spec()
	spec.Workers = 1
	spec.Checkpoint = filepath.Join(t.TempDir(), "ref.jsonl")
	res, err := campaign.RunContext(context.Background(), prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(spec.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return journal, rb
}

// runFleet runs a coordinator over the given workers and returns the
// merged journal bytes, the marshalled Result and the final snapshot.
func runFleet(t *testing.T, cfg Config) ([]byte, []byte, Snapshot) {
	t.Helper()
	dir := t.TempDir()
	if cfg.Journal == "" {
		cfg.Journal = filepath.Join(dir, "fleet.jsonl")
	}
	if cfg.Merged == "" {
		cfg.Merged = filepath.Join(dir, "merged.jsonl")
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	merged, err := os.ReadFile(cfg.Merged)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return merged, rb, c.Snapshot()
}

func TestFleetMatchesSingleNode(t *testing.T) {
	params := testParams(60)
	wantJournal, wantResult := singleNodeRun(t, params)

	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	merged, result, snap := runFleet(t, Config{
		Workers:  []string{w1.URL, w2.URL},
		Params:   params,
		Shards:   5,
		MinSteal: 2,
	})
	if !bytes.Equal(merged, wantJournal) {
		t.Fatalf("merged journal differs from single-node checkpoint\nfleet:\n%s\nsingle:\n%s", merged, wantJournal)
	}
	if !bytes.Equal(result, wantResult) {
		t.Fatalf("fleet result differs from single-node result\nfleet:  %s\nsingle: %s", result, wantResult)
	}
	if snap.Done != 60 || !snap.Complete {
		t.Fatalf("snapshot: got %+v, want 60 done and complete", snap)
	}
}

// killAfter aborts a worker's connection mid-stream after n lines on
// the first shard request — the in-process stand-in for SIGKILLing the
// worker: the coordinator sees a torn stream with no terminal line.
// The returned channel closes once the kill has fired.
func killAfter(n int) (func(http.Handler) http.Handler, <-chan struct{}) {
	var used atomic.Bool
	fired := make(chan struct{})
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/shards") && used.CompareAndSwap(false, true) {
				next.ServeHTTP(&killWriter{ResponseWriter: w, remaining: n, fired: fired}, r)
				return
			}
			next.ServeHTTP(w, r)
		})
	}, fired
}

// holdShardsUntil delays a worker's shard requests until ch closes (or
// the coordinator abandons the request), so a test can order one
// worker's progress behind an event on another.
func holdShardsUntil(ch <-chan struct{}) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/shards") {
				select {
				case <-ch:
				case <-r.Context().Done():
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// killWriter passes the first remaining lines of a shard stream. The
// write that carries the line past them is cut after its last allowed
// line — a journal chunk torn mid-write — flushed, and aborted; so is
// every later write. The handler writes from one goroutine at a time.
type killWriter struct {
	http.ResponseWriter
	remaining int
	fired     chan struct{}
}

func (k *killWriter) Write(b []byte) (int, error) {
	if k.remaining < 0 {
		panic(http.ErrAbortHandler)
	}
	if lines := bytes.Count(b, []byte("\n")); lines <= k.remaining {
		k.remaining -= lines
		return k.ResponseWriter.Write(b)
	}
	cut := 0
	for ; k.remaining > 0; k.remaining-- {
		cut += bytes.IndexByte(b[cut:], '\n') + 1
	}
	k.remaining = -1
	if _, err := k.ResponseWriter.Write(b[:cut]); err != nil {
		return 0, err
	}
	k.Flush()
	close(k.fired)
	// net/http tears the TCP connection without a terminal chunk —
	// exactly what a SIGKILL of the worker process produces.
	panic(http.ErrAbortHandler)
}

func (k *killWriter) Flush() {
	if f, ok := k.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func TestFleetWorkerKilledMidShard(t *testing.T) {
	params := testParams(60)
	wantJournal, wantResult := singleNodeRun(t, params)

	// Worker 1 dies 8 records into its first shard; worker 2 is healthy
	// but serves no shard until the kill has fired, so it cannot finish
	// the campaign before worker 1's first lease is torn.
	kill, fired := killAfter(8)
	w1 := newWorker(t, kill)
	w2 := newWorker(t, holdShardsUntil(fired))
	merged, result, snap := runFleet(t, Config{
		Workers:  []string{w1.URL, w2.URL},
		Params:   params,
		Shards:   4,
		MinSteal: 2,
	})
	if snap.Failures == 0 {
		t.Fatal("expected at least one failed lease from the killed worker")
	}
	if !bytes.Equal(merged, wantJournal) {
		t.Fatalf("merged journal differs from single-node checkpoint after mid-shard kill\nfleet:\n%s\nsingle:\n%s", merged, wantJournal)
	}
	if !bytes.Equal(result, wantResult) {
		t.Fatalf("fleet result differs from single-node result after mid-shard kill\nfleet:  %s\nsingle: %s", result, wantResult)
	}
}

func TestFleetCoordinatorRestartResume(t *testing.T) {
	params := testParams(60)
	wantJournal, wantResult := singleNodeRun(t, params)

	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	dir := t.TempDir()
	journal := filepath.Join(dir, "fleet.jsonl")
	merged := filepath.Join(dir, "merged.jsonl")

	// First coordinator dies (deterministically) after 20 received
	// records.
	cfg := Config{
		Workers:   []string{w1.URL, w2.URL},
		Params:    params,
		Journal:   journal,
		Merged:    merged,
		Shards:    5,
		MinSteal:  2,
		StopAfter: 20,
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := c1.Run(context.Background())
	if !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("interrupted run: got %v, want campaign.ErrInterrupted", err)
	}
	if partial.Ran != 20 || partial.Requested != 60 {
		t.Fatalf("interrupted run returned Ran %d of %d, want the partial 20 of 60", partial.Ran, partial.Requested)
	}

	// A restarted coordinator replays the journal and completes the
	// campaign without re-running the received trials.
	cfg.StopAfter = 0
	cfg.Resume = true
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.mu.Lock()
	resumed := len(c2.done)
	c2.mu.Unlock()
	if resumed != 20 {
		t.Fatalf("resume loaded %d records, want the 20 the first run received", resumed)
	}
	res, err := c2.Run(context.Background())
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if c2.received != 40 {
		t.Fatalf("resumed run received %d new records, want the 40 not journaled", c2.received)
	}

	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJournal) {
		t.Fatalf("merged journal differs from single-node checkpoint after restart\nfleet:\n%s\nsingle:\n%s", got, wantJournal)
	}
	rb, _ := json.Marshal(res)
	if !bytes.Equal(rb, wantResult) {
		t.Fatalf("fleet result differs after restart\nfleet:  %s\nsingle: %s", rb, wantResult)
	}
}

func TestFleetResumeFullyJournaledNeedsNoWorkers(t *testing.T) {
	params := testParams(30)
	wantJournal, wantResult := singleNodeRun(t, params)

	w1 := newWorker(t, nil)
	dir := t.TempDir()
	cfg := Config{
		Workers: []string{w1.URL},
		Params:  params,
		Journal: filepath.Join(dir, "fleet.jsonl"),
		Merged:  filepath.Join(dir, "merged.jsonl"),
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Every trial is journaled: a resume must merge without leasing —
	// the worker URL is unreachable on purpose.
	cfg.Workers = []string{"http://127.0.0.1:1"}
	cfg.Resume = true
	cfg.Merged = filepath.Join(dir, "merged2.jsonl")
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cfg.Merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJournal) {
		t.Fatal("merged journal from a fully-journaled resume differs from single-node checkpoint")
	}
	rb, _ := json.Marshal(res)
	if !bytes.Equal(rb, wantResult) {
		t.Fatal("result from a fully-journaled resume differs from single-node result")
	}
}

func TestFleetDeadWorkerHeartbeat(t *testing.T) {
	params := testParams(40)
	wantJournal, wantResult := singleNodeRun(t, params)

	// The dead worker accepts the lease, writes headers, then streams
	// nothing: only the heartbeat deadline can unstick it.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done()
	}))
	t.Cleanup(dead.Close)
	healthy := newWorker(t, nil)

	merged, result, snap := runFleet(t, Config{
		Workers:      []string{dead.URL, healthy.URL},
		Params:       params,
		Shards:       4,
		MinSteal:     2,
		LeaseTimeout: 100 * time.Millisecond,
	})
	if snap.Failures == 0 {
		t.Fatal("expected heartbeat-expired leases from the dead worker")
	}
	if !bytes.Equal(merged, wantJournal) {
		t.Fatal("merged journal differs from single-node checkpoint with a silent worker in the fleet")
	}
	if !bytes.Equal(result, wantResult) {
		t.Fatal("fleet result differs from single-node result with a silent worker in the fleet")
	}
}

func TestFleetKeyMismatchIsFatal(t *testing.T) {
	// A worker that answers 409 models params-key skew: no re-lease can
	// fix it, so the campaign must abort instead of retrying forever.
	skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"params key mismatch"}`, http.StatusConflict)
	}))
	t.Cleanup(skewed.Close)

	c, err := New(Config{
		Workers: []string{skewed.URL},
		Params:  testParams(20),
		Journal: filepath.Join(t.TempDir(), "fleet.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background())
	if err == nil || errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("got %v, want a fatal (non-interrupted) error", err)
	}
	if !strings.Contains(err.Error(), "409") {
		t.Fatalf("error %q does not surface the 409 conflict", err)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	params := testParams(10)
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no workers", Config{Params: params, Journal: journal}, "no workers"},
		{"no journal", Config{Workers: []string{"http://x"}, Params: params}, "no journal"},
		{"ci-width", Config{Workers: []string{"http://x"}, Journal: journal,
			Params: func() serve.CampaignParams { p := params; p.CIWidth = 0.05; return p }()}, "sequential"},
		{"bad params", Config{Workers: []string{"http://x"}, Journal: journal,
			Params: serve.CampaignParams{Prog: "no-such-program"}}, "unknown library program"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestNewRefusesExistingJournalWithoutResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(journal, []byte(`{"event":"campaign"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{Workers: []string{"http://x"}, Params: testParams(10), Journal: journal})
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("got %v, want refusal pointing at -resume", err)
	}
}

func TestResumeKeyMismatchFails(t *testing.T) {
	params := testParams(10)
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	// A journal written under a different params key (different seed).
	other := params
	other.Seed = 999
	prog, err := other.Program()
	if err != nil {
		t.Fatal(err)
	}
	otherKey := other.Spec().Key(campaign.ProgHash(prog))
	header, _ := json.Marshal(journalEvent{Event: evCampaign, Key: otherKey, Trials: 10})
	if err := os.WriteFile(journal, append(header, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Workers: []string{"http://x"}, Params: params, Journal: journal, Resume: true})
	if !errors.Is(err, campaign.ErrKeyMismatch) {
		t.Fatalf("got %v, want campaign.ErrKeyMismatch", err)
	}
}

func TestSplitRange(t *testing.T) {
	cases := []struct {
		trials, n int
		want      int // shard count
	}{
		{100, 4, 4},
		{10, 100, 10}, // clamped to trial count
		{7, 3, 3},
		{1, 1, 1},
	}
	for _, tc := range cases {
		shards := splitRange(tc.trials, tc.n)
		if len(shards) != tc.want {
			t.Fatalf("splitRange(%d, %d): %d shards, want %d", tc.trials, tc.n, len(shards), tc.want)
		}
		next := 0
		for _, s := range shards {
			if s.lo != next || s.hi <= s.lo {
				t.Fatalf("splitRange(%d, %d): shard %d is [%d,%d), want contiguous from %d",
					tc.trials, tc.n, s.id, s.lo, s.hi, next)
			}
			next = s.hi
		}
		if next != tc.trials {
			t.Fatalf("splitRange(%d, %d): covers [0,%d), want [0,%d)", tc.trials, tc.n, next, tc.trials)
		}
	}
}

func TestJournalReplayToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	rec := campaign.TrialRecord{Key: "k", Index: 3, Space: "int-reg", Outcome: "benign", Attempts: 1}
	var buf bytes.Buffer
	for _, ev := range []journalEvent{
		{Event: evCampaign, Key: "k", Trials: 10},
		{Event: evLease, Shard: 1, Lo: 0, Hi: 10, Worker: "http://w", Attempt: 1},
	} {
		b, _ := json.Marshal(ev)
		buf.Write(append(b, '\n'))
	}
	buf.Write(append(rec.AppendJSON(nil), '\n'))
	buf.WriteString(`{"key":"k","i":4`) // torn tail, no newline
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := replayJournal(path, "k")
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	if st.header == nil || len(st.done) != 1 || st.done[3] == nil {
		t.Fatalf("replay: header=%v done=%v, want header plus trial 3", st.header, st.done)
	}

	// The same corruption mid-file (followed by a valid line) is loud.
	buf.WriteString("\n")
	b, _ := json.Marshal(journalEvent{Event: evDone, Shard: 1})
	buf.Write(append(b, '\n'))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayJournal(path, "k"); err == nil {
		t.Fatal("replay accepted corruption in the middle of the journal")
	}
}

// A coordinator killed mid-append leaves a torn tail. The first resume
// must not glue its appends onto the fragment, or the second resume
// fails on a garbage line mid-journal.
func TestFleetResumedTwiceOverTornTail(t *testing.T) {
	params := testParams(60)
	wantJournal, wantResult := singleNodeRun(t, params)

	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	dir := t.TempDir()
	cfg := Config{
		Workers:   []string{w1.URL, w2.URL},
		Params:    params,
		Journal:   filepath.Join(dir, "fleet.jsonl"),
		Merged:    filepath.Join(dir, "merged.jsonl"),
		Shards:    5,
		MinSteal:  2,
		StopAfter: 20,
	}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run(context.Background()); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("first run: got %v, want campaign.ErrInterrupted", err)
	}
	f, err := os.OpenFile(cfg.Journal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"k","i":4`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg.Resume = true
	cfg.StopAfter = 10
	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("first resume: %v", err)
	}
	if _, err := c2.Run(context.Background()); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("first resume run: got %v, want campaign.ErrInterrupted", err)
	}

	cfg.StopAfter = 0
	c3, err := New(cfg)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	res, err := c3.Run(context.Background())
	if err != nil {
		t.Fatalf("second resume run: %v", err)
	}
	got, err := os.ReadFile(cfg.Merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJournal) {
		t.Fatal("merged journal after two resumes differs from single-node checkpoint")
	}
	if rb, _ := json.Marshal(res); !bytes.Equal(rb, wantResult) {
		t.Fatalf("result after two resumes differs\nfleet:  %s\nsingle: %s", rb, wantResult)
	}
}
