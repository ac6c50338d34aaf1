package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/journal"
	"github.com/cmlasu/unsync/internal/resilience"
	"github.com/cmlasu/unsync/internal/stream"
)

// ErrDraining is the cancellation cause of every in-flight job when
// the server drains (SIGTERM): jobs cut short by it are journaled as
// interrupted — not failed — and re-enter the queue on restart.
var ErrDraining = errors.New("serve: server draining")

// errDeadline is the cancellation cause when a job's own wall-clock
// deadline expires; unlike a drain it is terminal.
var errDeadline = errors.New("serve: job deadline exceeded")

// Config tunes a Server. The zero value of each field selects the
// default noted on it.
type Config struct {
	// StateDir holds the jobs journal and the per-job campaign
	// checkpoints. Required.
	StateDir string
	// MaxConcurrent bounds how many jobs run at once (default 2).
	MaxConcurrent int
	// QueueDepth bounds how many admitted jobs may wait for a worker
	// slot; a submit beyond MaxConcurrent+QueueDepth is shed with
	// 429 Retry-After (default 8).
	QueueDepth int
	// DefaultDeadline bounds jobs that set no deadline (default 10 m).
	DefaultDeadline time.Duration
	// MaxDeadline clamps requested deadlines (default 1 h).
	MaxDeadline time.Duration

	// EnableShards mounts POST /api/v1/shards, the worker half of the
	// distributed campaign fabric: leased trial ranges execute here and
	// stream their records back as flushed JSONL. Off by default — a
	// plain job server should not accept fleet work it was never sized
	// for; cmd/unsync-serve turns it on with -worker.
	EnableShards bool
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = time.Hour
	}
	return c
}

// Server is the campaign job service. Create with New, mount Handler
// on an http.Server, and call Drain before exit.
type Server struct {
	cfg     Config
	runner  runFunc
	gate    *resilience.Gate
	journal *journal.Log
	mux     *http.ServeMux

	// jobsCtx is the parent of every job context; drainCause cancels
	// it with ErrDraining.
	jobsCtx    context.Context
	drainCause context.CancelCauseFunc
	wg         sync.WaitGroup // one per admitted job goroutine

	mu       sync.Mutex
	jobs     map[string]*Job
	planes   map[string]*stream.Plane // per campaign job, kept after completion
	order    []string                 // submit order, for listing
	seq      uint64
	shed     uint64 // submits rejected 429 since process start
	draining bool

	// Shard-execution counters (worker mode), under mu.
	shardsActive  int    // shard streams running now
	shardsTotal   uint64 // shard leases accepted since process start
	shardTrials   uint64 // trial records streamed since process start
	shardFailures uint64 // shards cut short worker-side
}

// New builds a server over StateDir, replaying the jobs journal and
// re-enqueueing every job that was queued, running or interrupted when
// the previous process exited. Campaign jobs resume from their
// checkpoint journals, so a drained campaign completes bit-identically
// to an uninterrupted one.
func New(cfg Config) (*Server, error) { return newServer(cfg, nil) }

// newServer is New with the job runner replaced (nil selects the real
// campaign/figure runner). The runner must be in place before the
// replayed jobs start, so tests inject it here.
func newServer(cfg Config, runner runFunc) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, errors.New("serve: Config.StateDir is required")
	}
	for _, dir := range []string{"checkpoints", "dlq"} {
		if err := os.MkdirAll(filepath.Join(cfg.StateDir, dir), 0o755); err != nil {
			return nil, fmt.Errorf("serve: %s dir: %w", dir, err)
		}
	}
	path := filepath.Join(cfg.StateDir, "jobs.jsonl")
	prior, maxSeq, err := loadJournal(path)
	if err != nil {
		return nil, err
	}
	jn, err := journal.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		gate:       resilience.NewGate(cfg.MaxConcurrent, cfg.QueueDepth),
		journal:    jn,
		jobsCtx:    ctx,
		drainCause: cancel,
		jobs:       map[string]*Job{},
		planes:     map[string]*stream.Plane{},
		seq:        maxSeq,
	}
	s.runner = runner
	if s.runner == nil {
		s.runner = s.defaultRunner
	}
	s.routes()

	// Re-enqueue unfinished work from the previous process. These jobs
	// were admitted once already, so a restart must not shed them: the
	// ones beyond the gate's capacity wait for a running slot without
	// holding a queue ticket, and new submits still see the whole queue.
	for _, job := range prior {
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		if job.State == StateDone || job.State == StateFailed {
			continue
		}
		s.setState(job, StateQueued, "", nil)
		res, rerr := s.gate.Reserve()
		if rerr != nil {
			res = s.gate.Overflow()
		}
		s.startJob(job, res)
	}
	return s, nil
}

// checkpointPath is the campaign checkpoint journal of one job.
func (s *Server) checkpointPath(jobID string) string {
	return filepath.Join(s.cfg.StateDir, "checkpoints", jobID+".jsonl")
}

// dlqPath is the dead-letter sidecar of one campaign job.
func (s *Server) dlqPath(jobID string) string {
	return filepath.Join(s.cfg.StateDir, "dlq", jobID+".jsonl")
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/api/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/api/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/api/v1/shards", s.handleShards)
}

// handleHealthz reports liveness: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness: 503 while draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleJobs serves POST (submit) and GET (list) on /api/v1/jobs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		s.handleList(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// handleSubmit admits one job: validate, reserve gate capacity (429 on
// saturation), journal the submit, and start the job goroutine.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if err := req.validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	res, err := s.gate.Reserve()
	if err != nil {
		s.shed++
		s.mu.Unlock()
		// The bounded queue is full: shed the request instead of
		// growing memory. Retry-After tells well-behaved clients when
		// to come back.
		w.Header().Set("Retry-After", shedRetryAfter)
		httpError(w, http.StatusTooManyRequests, "job queue saturated")
		return
	}
	s.seq++
	job := &Job{
		ID:         jobID(s.seq, req),
		Kind:       req.Kind,
		State:      StateQueued,
		Request:    req,
		DeadlineMS: s.deadlineMS(req.DeadlineMS),
	}
	if prev := s.jobs[job.ID]; prev != nil {
		// Same request re-submitted in the same sequence slot cannot
		// happen (seq is monotone), so an ID collision is a bug.
		s.mu.Unlock()
		res.Release()
		httpError(w, http.StatusInternalServerError, "job ID collision: %s", job.ID)
		return
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	seq := s.seq
	s.mu.Unlock()

	if err := appendEvent(s.journal, jobEvent{
		Event: "submit", Seq: seq, ID: job.ID,
		Request: &job.Request, DeadlineMS: job.DeadlineMS,
	}); err != nil {
		s.mu.Lock()
		delete(s.jobs, job.ID)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		res.Release()
		httpError(w, http.StatusInternalServerError, "journal submit: %v", err)
		return
	}
	s.startJob(job, res)
	writeJSON(w, http.StatusAccepted, job.snapshot(&s.mu))
}

// deadlineMS clamps a requested deadline to the server bounds.
func (s *Server) deadlineMS(requested int64) int64 {
	d := time.Duration(requested) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d.Milliseconds()
}

// startJob launches the job goroutine, which waits on res for a
// running slot.
func (s *Server) startJob(job *Job, res *resilience.Reservation) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := res.Wait(s.jobsCtx); err != nil {
			s.finishJob(job, nil, err)
			return
		}
		defer res.Release()

		s.setState(job, StateRunning, "", nil)
		ctx, cancel := context.WithTimeoutCause(s.jobsCtx,
			time.Duration(job.DeadlineMS)*time.Millisecond, errDeadline)
		defer cancel()
		result, err := s.runner(ctx, job)
		s.finishJob(job, result, err)
	}()
}

// isInterrupt reports whether err marks a drain-style interruption
// (job must resume on restart) rather than a terminal failure.
func isInterrupt(err error) bool {
	return errors.Is(err, ErrDraining) ||
		(errors.Is(err, campaign.ErrInterrupted) && !errors.Is(err, errDeadline))
}

// finishJob journals the job's terminal (or interrupted) state.
func (s *Server) finishJob(job *Job, result json.RawMessage, err error) {
	switch {
	case err == nil:
		s.setState(job, StateDone, "", result)
	case isInterrupt(err):
		s.setState(job, StateInterrupted, err.Error(), nil)
	default:
		s.setState(job, StateFailed, err.Error(), nil)
	}
}

// setState mutates the job under the lock and journals the change.
func (s *Server) setState(job *Job, state JobState, msg string, result json.RawMessage) {
	s.mu.Lock()
	job.State = state
	job.Error = msg
	if result != nil {
		job.Result = result
	}
	s.mu.Unlock()
	if err := appendEvent(s.journal, jobEvent{Event: "state", ID: job.ID, State: state, Error: msg, Result: result}); err != nil {
		// The in-memory state is still correct; a restart may redo the
		// transition. Resumable by design, so log-and-continue would be
		// the production move — with no logger dependency, the error is
		// folded into the job record instead.
		s.mu.Lock()
		if job.Error == "" {
			job.Error = fmt.Sprintf("journal append failed: %v", err)
		}
		s.mu.Unlock()
	}
}

// snapshot returns a copy of the job safe to marshal outside the lock.
func (j *Job) snapshot(mu *sync.Mutex) Job {
	mu.Lock()
	defer mu.Unlock()
	cp := *j
	return cp
}

// handleList serves GET /api/v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleJob serves GET /api/v1/jobs/{id} and dispatches the
// GET /api/v1/jobs/{id}/progress SSE stream.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/")
	if rest, ok := strings.CutSuffix(id, "/progress"); ok {
		s.handleProgress(w, r, rest)
		return
	}
	s.mu.Lock()
	job, ok := s.jobs[id]
	var cp Job
	if ok {
		cp = *job
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, cp)
}

// Drain stops admitting jobs, cancels every in-flight job with
// ErrDraining, and waits (bounded by ctx) until all job goroutines
// have journaled their final state. Campaign jobs flush their
// checkpoint journals on the way out, so a restarted server resumes
// them bit-identically. The jobs journal is closed on return.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drainCause(ErrDraining)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain cut short: %w", context.Cause(ctx))
	}
	if cerr := s.journal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// ---- small HTTP helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// shedRetryAfter is the Retry-After hint of a 429, in seconds: a shed
// submit or shard lease may come back after one second.
const shedRetryAfter = "1"
