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
	"sync/atomic"
	"testing"
	"time"

	"github.com/cmlasu/unsync/internal/campaign"
)

// compactJSON normalizes whitespace so results can be compared
// byte-for-byte regardless of the transport's indentation.
func compactJSON(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("compact %q: %v", b, err)
	}
	return buf.Bytes()
}

// newTestServer builds a server over a fresh state dir.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newRunnerServer(t, cfg, nil)
}

// newRunnerServer is newTestServer with the job runner replaced (nil
// keeps the real one).
func newRunnerServer(t *testing.T, cfg Config, runner runFunc) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	s, err := newServer(cfg, runner)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// submit POSTs a job and decodes the response.
func submit(t *testing.T, ts *httptest.Server, req JobRequest) (*http.Response, Job) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
	}
	return resp, job
}

// retiredField is a campaign params field that no longer exists: the
// per-trial wall-clock timeout. Requests that still set it must be
// refused by name, not silently run without it.
const retiredField = "trial_timeout_ms"

// postRaw POSTs a literal JSON body and returns the status and the
// response body, for requests the typed structs cannot express.
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// getJob fetches one job's state.
func getJob(t *testing.T, ts *httptest.Server, id string) Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

// waitState polls until the job reaches a wanted state or the budget
// runs out.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...JobState) Job {
	t.Helper()
	var job Job
	for i := 0; i < 2000; i++ {
		job = getJob(t, ts, id)
		for _, w := range want {
			if job.State == w {
				return job
			}
		}
		time.Sleep(5 * time.Millisecond) //unsync:allow-sleep test poll for job state
	}
	t.Fatalf("job %s stuck in state %s (err %q), want one of %v", id, job.State, job.Error, want)
	return job
}

// campaignReq is the standard small campaign used across tests.
func campaignReq(trials int) JobRequest {
	return JobRequest{
		Kind: KindCampaign,
		Campaign: &CampaignParams{
			Prog:     "checksum",
			Scheme:   campaign.SchemeUnSync,
			Trials:   trials,
			Seed:     7,
			MaxSteps: 20_000,
			Workers:  2,
		},
	}
}

// directResult runs the same campaign uninterrupted, without any
// journal, and returns its marshaled result — the bit-identical
// reference for the service runs.
func directResult(t *testing.T, req JobRequest) []byte {
	t.Helper()
	prog, err := req.Campaign.Program()
	if err != nil {
		t.Fatal(err)
	}
	spec := req.Campaign.spec("")
	spec.Resume = false
	res, err := campaign.Run(prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSubmitStatusResult(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := campaignReq(20)
	resp, job := submit(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if job.ID == "" || job.Kind != KindCampaign {
		t.Fatalf("bad job echo: %+v", job)
	}
	done := waitState(t, ts, job.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if !bytes.Equal(compactJSON(t, done.Result), directResult(t, req)) {
		t.Fatalf("service result differs from direct run:\n%s", done.Result)
	}
	// The result must also decode as a campaign.Result with every
	// trial accounted for.
	var res campaign.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Ran != 20 || res.Failed != 0 {
		t.Fatalf("ran %d/%d, failed %d", res.Ran, res.Requested, res.Failed)
	}
}

func TestOverloadSheds429(t *testing.T) {
	release := make(chan struct{})
	ran := make(chan string, 16)
	runner := func(ctx context.Context, job *Job) (json.RawMessage, error) {
		ran <- job.ID
		select {
		case <-release:
			return json.RawMessage(`"ok"`), nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	_, ts := newRunnerServer(t, Config{MaxConcurrent: 1, QueueDepth: 1}, runner)

	resp1, job1 := submit(t, ts, campaignReq(5))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("job1 status = %d", resp1.StatusCode)
	}
	<-ran // job1 holds the only worker slot
	resp2, job2 := submit(t, ts, campaignReq(6))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("job2 status = %d (should occupy the queue)", resp2.StatusCode)
	}
	// Slot busy, queue full: the third submit must be shed.
	resp3, _ := submit(t, ts, campaignReq(7))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job3 status = %d, want 429", resp3.StatusCode)
	}
	if got := resp3.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	close(release)
	if j := waitState(t, ts, job1.ID, StateDone); !bytes.Equal(compactJSON(t, j.Result), []byte(`"ok"`)) {
		t.Fatalf("job1 result = %s", j.Result)
	}
	waitState(t, ts, job2.ID, StateDone)

	// The shed submit must show up on /metrics.
	if body := scrapeMetrics(t, ts.URL); !strings.Contains(body, "unsync_serve_shed_total 1\n") {
		t.Errorf("metrics missing shed count:\n%s", body)
	}
}

func TestDrainRestartResumesBitIdentical(t *testing.T) {
	// Long enough that the drain lands mid-run: the lane engine runs
	// about 300k checksum trials per CPU second.
	const trials = 30_000
	stateDir := t.TempDir()
	req := campaignReq(trials)
	srv, ts := newTestServer(t, Config{StateDir: stateDir})
	resp, job := submit(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	// Wait until the campaign has journaled some completed trials,
	// proving the drain hits it mid-run.
	ckpt := filepath.Join(stateDir, "checkpoints", job.ID+".jsonl")
	for i := 0; ; i++ {
		if b, err := os.ReadFile(ckpt); err == nil && bytes.Count(b, []byte("\n")) >= 10 {
			break
		}
		if i > 2000 {
			t.Fatal("campaign never journaled 10 trials")
		}
		time.Sleep(5 * time.Millisecond) //unsync:allow-sleep test poll for checkpoint growth
	}

	// SIGTERM path: drain cancels the job and waits for the journals.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	trialsAtDrain := 0
	if b, err := os.ReadFile(ckpt); err == nil {
		trialsAtDrain = bytes.Count(b, []byte("\n"))
	}
	if trialsAtDrain >= trials {
		t.Skip("campaign finished before the drain; host too fast for this cut")
	}

	// Restart over the same state dir: the interrupted job re-enters
	// the queue and resumes from its checkpoint.
	srv2, ts2 := newTestServer(t, Config{StateDir: stateDir})
	done := waitState(t, ts2, job.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("resumed job failed: %s", done.Error)
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatalf("final drain: %v", err)
	}

	// The resumed run must be bit-identical to one uninterrupted run.
	if want := directResult(t, req); !bytes.Equal(compactJSON(t, done.Result), want) {
		t.Fatalf("resumed result differs from uninterrupted run\n got: %s\nwant: %s", done.Result, want)
	}
	// And the checkpoint must not have re-run the pre-drain trials.
	var res campaign.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Ran != trials {
		t.Fatalf("resumed campaign ran %d trials, want %d", res.Ran, trials)
	}
}

// A restarted server re-enqueues every unfinished job, even more than
// its gate holds. The jobs beyond the gate's capacity must still wait
// for a running slot: MaxConcurrent bounds the runner after a restart
// as before it.
func TestRestartOverflowWaitsForSlot(t *testing.T) {
	const jobs = 5
	stateDir := t.TempDir()

	// First life: admit five jobs, then drain them all to interrupted.
	block := func(ctx context.Context, job *Job) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}
	srv, ts := newRunnerServer(t, Config{StateDir: stateDir, MaxConcurrent: 1, QueueDepth: jobs}, block)
	ids := make([]string, jobs)
	for i := range ids {
		resp, job := submit(t, ts, campaignReq(i+1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d", i, resp.StatusCode)
		}
		ids[i] = job.ID
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Second life: one running slot and one queue ticket for five
	// replayed jobs. Each runner call holds its slot until released.
	var inFlight, peak atomic.Int32
	entered := make(chan struct{}, jobs)
	release := make(chan struct{})
	runner := func(ctx context.Context, job *Job) (json.RawMessage, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		entered <- struct{}{}
		select {
		case <-release:
			return json.RawMessage(`"ok"`), nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	srv2, ts2 := newRunnerServer(t, Config{StateDir: stateDir, MaxConcurrent: 1, QueueDepth: 1}, runner)
	for range jobs {
		<-entered
		// Let any job that skipped the gate enter the runner too.
		time.Sleep(20 * time.Millisecond) //unsync:allow-sleep test settle before releasing the running job
		release <- struct{}{}
	}
	for _, id := range ids {
		waitState(t, ts2, id, StateDone)
	}
	if p := peak.Load(); p != 1 {
		t.Fatalf("%d concurrent runner calls after restart, want at most MaxConcurrent = 1", p)
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestJobDeadlineFailsTerminally(t *testing.T) {
	runner := func(ctx context.Context, job *Job) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, context.Cause(ctx)
	}
	_, ts := newRunnerServer(t, Config{}, runner)
	req := campaignReq(5)
	req.DeadlineMS = 30
	_, job := submit(t, ts, req)
	failed := waitState(t, ts, job.ID, StateFailed, StateDone, StateInterrupted)
	if failed.State != StateFailed {
		t.Fatalf("state = %s, want failed (a deadline is terminal, not resumable)", failed.State)
	}
	if !strings.Contains(failed.Error, "deadline") {
		t.Fatalf("error = %q, want a deadline cause", failed.Error)
	}
}

func TestDeadlineClamping(t *testing.T) {
	s, ts := newRunnerServer(t, Config{DefaultDeadline: 2 * time.Second, MaxDeadline: 5 * time.Second},
		func(ctx context.Context, job *Job) (json.RawMessage, error) {
			return json.RawMessage(`"ok"`), nil
		})
	_ = s
	req := campaignReq(1)
	_, job := submit(t, ts, req)
	if job.DeadlineMS != 2000 {
		t.Fatalf("default deadline = %d ms, want 2000", job.DeadlineMS)
	}
	req2 := campaignReq(2)
	req2.DeadlineMS = 60_000
	_, job2 := submit(t, ts, req2)
	if job2.DeadlineMS != 5000 {
		t.Fatalf("clamped deadline = %d ms, want 5000", job2.DeadlineMS)
	}
}

// A job that fails on its own input says nothing about the server:
// five campaigns whose golden run cannot finish in one step fail, and
// the service stays open for the next submit.
func TestFailedJobsKeepServiceOpen(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := range 5 {
		req := campaignReq(i + 1)
		req.Campaign.MaxSteps = 1
		_, j := submit(t, ts, req)
		if got := waitState(t, ts, j.ID, StateFailed); !strings.Contains(got.Error, "golden run") {
			t.Fatalf("job %d failed with %q, want the golden-run step budget", i, got.Error)
		}
	}
	resp, j := submit(t, ts, campaignReq(6))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after failed jobs = %d, want 202", resp.StatusCode)
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Fatalf("readyz after failed jobs = %d, want 200", ready.StatusCode)
	}
	waitState(t, ts, j.ID, StateDone)
}

func TestHealthAndReadiness(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", ep, resp.StatusCode)
		}
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	// Liveness stays green during a drain.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d", resp.StatusCode)
	}
}

func TestSubmitValidation(t *testing.T) {
	stateDir := t.TempDir()
	_, ts := newTestServer(t, Config{StateDir: stateDir})
	cases := []JobRequest{
		{Kind: "nonsense"},
		{Kind: KindCampaign},
		{Kind: KindCampaign, Campaign: &CampaignParams{Prog: "no-such-prog"}},
		{Kind: KindCampaign, Campaign: &CampaignParams{Prog: "checksum", Spaces: []string{"warp-core"}}},
		{Kind: KindCampaign, Campaign: &CampaignParams{Prog: "checksum", Scheme: "tmr"}},
		{Kind: KindCampaign, Campaign: &CampaignParams{Prog: "checksum", Scheme: "reunion", FI: -5}},
		// A negative trial count once reached the runner, which panicked;
		// the journaled submit then crashed every restart.
		{Kind: KindCampaign, Campaign: &CampaignParams{Prog: "checksum", Trials: -3}},
		{Kind: KindFigure},
		{Kind: KindFigure, Figure: &FigureParams{Name: "fig99"}},
	}
	for i, req := range cases {
		resp, _ := submit(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
	// The retired per-trial wall-clock timeout is refused by name, not
	// dropped.
	status, body := postRaw(t, ts.URL+"/api/v1/jobs",
		`{"kind":"campaign","campaign":{"prog":"checksum","`+retiredField+`":50}}`)
	if status != http.StatusBadRequest || !strings.Contains(body, retiredField) {
		t.Errorf("%s: status %d body %s, want 400 naming the field", retiredField, status, body)
	}
	// Inline source assembles at submit time.
	resp, _ := submit(t, ts, JobRequest{Kind: KindCampaign,
		Campaign: &CampaignParams{Source: "this is not assembly"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad source: status = %d, want 400", resp.StatusCode)
	}
	// A rejected submit leaves nothing for a restart to replay.
	if b, err := os.ReadFile(filepath.Join(stateDir, "jobs.jsonl")); err == nil && len(b) > 0 {
		t.Errorf("rejected submits were journaled:\n%s", b)
	}
}

func TestJournalReplayKeepsDoneJobs(t *testing.T) {
	stateDir := t.TempDir()
	srv, ts := newRunnerServer(t, Config{StateDir: stateDir}, func(ctx context.Context, job *Job) (json.RawMessage, error) {
		return json.RawMessage(`{"answer":42}`), nil
	})
	_, job := submit(t, ts, campaignReq(3))
	waitState(t, ts, job.ID, StateDone)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	srv2, ts2 := newTestServer(t, Config{StateDir: stateDir})
	got := getJob(t, ts2, job.ID)
	if got.State != StateDone || !bytes.Equal(compactJSON(t, got.Result), []byte(`{"answer":42}`)) {
		t.Fatalf("replayed job = %s result %s", got.State, got.Result)
	}
	// A done job must not re-run after restart.
	list, err := http.Get(ts2.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var body struct{ Jobs []Job }
	if err := json.NewDecoder(list.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Jobs) != 1 || body.Jobs[0].State != StateDone {
		t.Fatalf("job list after restart: %+v", body.Jobs)
	}
	if err := srv2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestReplayedRetiredTimeoutJobFailsKeyMismatch: a job journaled with
// the retired trial timeout replays without it (the journal decoder
// drops unknown fields), so its campaign derives a different params
// key. A checkpoint that holds only records under the old key must
// fail the job with ErrKeyMismatch, never mix them into the result.
func TestReplayedRetiredTimeoutJobFailsKeyMismatch(t *testing.T) {
	stateDir := t.TempDir()
	const id = "j000001-0badc0de"
	submitLine := `{"event":"submit","seq":1,"id":"` + id + `","request":{"kind":"campaign",` +
		`"campaign":{"prog":"checksum","trials":4,"seed":7,"max_steps":20000,"` + retiredField + `":50}}}` + "\n"
	if err := os.WriteFile(filepath.Join(stateDir, "jobs.jsonl"), []byte(submitLine), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := campaignReq(4).Campaign.Program()
	if err != nil {
		t.Fatal(err)
	}
	old := campaign.TrialRecord{Key: "00000000deadbeef", Prog: campaign.ProgHash(prog), Seed: 7, Outcome: "benign"}
	ckpt := append(old.AppendJSON(nil), '\n')
	ckptPath := filepath.Join(stateDir, "checkpoints", id+".jsonl")
	if err := os.MkdirAll(filepath.Dir(ckptPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptPath, ckpt, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{StateDir: stateDir})
	job := waitState(t, ts, id, StateFailed)
	if !strings.Contains(job.Error, campaign.ErrKeyMismatch.Error()) {
		t.Fatalf("replayed job error %q, want %v", job.Error, campaign.ErrKeyMismatch)
	}
	if got, err := os.ReadFile(ckptPath); err != nil || !bytes.Equal(got, ckpt) {
		t.Fatalf("checkpoint changed under a key mismatch (err %v):\n%s", err, got)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/api/v1/jobs/j999999-deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestFigureJob(t *testing.T) {
	if testing.Short() {
		t.Skip("figure job runs a full quick study")
	}
	_, ts := newTestServer(t, Config{})
	_, job := submit(t, ts, JobRequest{Kind: KindFigure, Figure: &FigureParams{Name: "roec", Trials: 6}})
	done := waitState(t, ts, job.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("figure job failed: %s", done.Error)
	}
	if !bytes.Contains(done.Result, []byte("UnSyncCampaign")) {
		t.Fatalf("figure result lacks campaign tally: %.200s", done.Result)
	}
}

// TestDeterministicJobIDs pins the no-wall-clock ID rule: the same
// request at the same sequence number always maps to the same ID, so
// checkpoint paths survive a restart.
func TestDeterministicJobIDs(t *testing.T) {
	req := campaignReq(9)
	a, b := jobID(12, req), jobID(12, req)
	if a != b {
		t.Fatalf("jobID not deterministic: %s vs %s", a, b)
	}
	if c := jobID(13, req); c == a {
		t.Fatalf("sequence number ignored: %s", c)
	}
	if !strings.HasPrefix(a, fmt.Sprintf("j%06d-", 12)) {
		t.Fatalf("ID format drifted: %s", a)
	}
}
