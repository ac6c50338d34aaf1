// Package fabric is the distributed campaign coordinator: it splits a
// fault-injection campaign's deterministic trial space into leased
// shard ranges, dispatches them to worker nodes over the internal/serve
// HTTP plane (POST /api/v1/shards), and merges the streamed-back trial
// records into one aggregate campaign.Result that is bit-identical to a
// single-node run of the same Spec.
//
// The protocol leans entirely on the campaign determinism contract:
// every trial's fault site derives from (Seed, trial index, attempt)
// alone, so any worker can execute any index range in any order and
// produce the very records a single-node run would journal. That turns
// fault tolerance into bookkeeping:
//
//   - Leases carry heartbeat deadlines: a worker streams one JSONL
//     line per trial, written and flushed once per journal chunk, and
//     every run of lines the coordinator receives resets its timer. A
//     SIGKILLed worker tears the TCP stream (or goes silent past
//     Config.LeaseTimeout); either way the lease fails and the undone
//     remainder of its range is re-leased elsewhere, with the
//     already-received indices in the skip list.
//   - Stragglers are re-split, not waited on: an idle worker steals the
//     tail half of the largest running remainder. The straggler keeps
//     streaming its original range; the overlap arrives twice, is
//     bit-identical by determinism (verified — a byte difference is a
//     determinism violation and aborts the campaign), and is deduped
//     by trial index on merge.
//   - The coordinator journals its own state (campaign header fsync'd
//     at open, lease-protocol events fsync'd as they happen, the trial
//     records of each received run in one write), so a coordinator
//     killed mid-campaign resumes from its journal without re-running
//     any received trial.
//
// Worker failures are absorbed with internal/resilience primitives: a
// per-worker circuit breaker stops leasing to a node that keeps
// failing, and re-leases back off with full jitter.
package fabric

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/journal"
	"github.com/cmlasu/unsync/internal/resilience"
	"github.com/cmlasu/unsync/internal/serve"
	"github.com/cmlasu/unsync/internal/stream"
)

// Config describes one distributed campaign.
type Config struct {
	// Workers are the base URLs of the worker nodes (unsync-serve
	// -worker), e.g. "http://10.0.0.7:8321". At least one is required.
	Workers []string
	// Params is the campaign definition, shared verbatim with every
	// worker; the params key derived from it is the lease-protocol
	// contract. CIWidth must be zero: early stopping is a sequential
	// policy — where to stop depends on trial order — and cannot be
	// distributed bit-identically.
	Params serve.CampaignParams
	// Journal is the coordinator's durable state file (required).
	Journal string
	// Resume replays Journal before dispatching, so completed trials
	// (and fully-received shards) never re-run.
	Resume bool
	// Merged, when non-empty, receives the merged canonical journal:
	// one JSONL trial record per line in trial-index order — byte-
	// identical to the checkpoint journal of a single-node -workers 1
	// run of the same Spec.
	Merged string

	// Shards is the static split count (default 4 per worker, clamped
	// to the trial count).
	Shards int
	// MinSteal is the smallest remainder worth re-splitting: an idle
	// worker steals the tail half of a running shard only when at least
	// 2*MinSteal trials remain in it (default 8).
	MinSteal int
	// ShardAttempts bounds lease attempts per shard; exceeding it
	// aborts the campaign (default 16).
	ShardAttempts int
	// LeaseTimeout is the heartbeat deadline: the longest silence on a
	// shard stream before the lease is declared dead (default 60s).
	LeaseTimeout time.Duration
	// Client issues the shard requests (default: a client whose
	// transport bounds the response-header wait by LeaseTimeout).
	Client *http.Client

	// StopAfter, when positive, aborts the campaign after that many
	// newly received trial records, returning campaign.ErrInterrupted —
	// the deterministic stand-in for a coordinator kill, used by tests
	// and the CI restart exercise.
	StopAfter int
	// Plane, when non-nil, observes each trial once: journal-resumed
	// records replay in index order before dispatch, then first
	// arrivals as they stream in (ingest drops steal-overlap and
	// re-lease duplicates before the plane sees them). The plane's own
	// DLQ replay means a restarted coordinator never dead-letters the
	// same trial twice. Strictly observational: the merged Result and
	// journal bytes are identical with or without it.
	Plane *stream.Plane
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (cfg Config) withDefaults() Config {
	if cfg.Shards == 0 {
		cfg.Shards = 4 * len(cfg.Workers)
	}
	if cfg.MinSteal <= 0 {
		cfg.MinSteal = 8
	}
	if cfg.ShardAttempts <= 0 {
		cfg.ShardAttempts = 16
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 60 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: &http.Transport{
			ResponseHeaderTimeout: cfg.LeaseTimeout,
		}}
	}
	return cfg
}

// shardState is a shard's lease position.
type shardState int

const (
	shardPending shardState = iota
	shardRunning
	shardDone
)

// shard is one leased slice [lo, hi) of the trial space. Ranges only
// ever shrink (a steal moves hi down); records received for a shard are
// tracked globally in the coordinator's done set, never per shard.
type shard struct {
	id       int
	lo, hi   int
	state    shardState
	attempts int
	worker   string // current or last lessee
}

// Sentinel causes distinguishing how a run ended.
var (
	// errCampaignComplete cancels in-flight straggler leases once every
	// trial has been received: their remaining stream is pure overlap.
	errCampaignComplete = errors.New("fabric: campaign complete")
	// errStopAfter cancels the run when Config.StopAfter fires.
	errStopAfter = errors.New("fabric: stop-after threshold reached")
	// errFatal marks failures no re-lease can fix (params key skew, a
	// determinism violation, journal I/O failure): the campaign aborts.
	errFatal = errors.New("fabric: fatal")
)

// Coordinator drives one distributed campaign. Build with New, run
// with Run; Snapshot is safe to call concurrently from a metrics
// handler.
type Coordinator struct {
	cfg      Config
	spec     campaign.Spec // normalized
	progHash string
	key      string
	jn       *journal.Log

	// resumed holds the journal-resumed records in index order until
	// replayPlane hands them to the plane.
	resumed []campaign.TrialRecord

	mu     sync.Mutex
	cond   *sync.Cond
	shards []*shard
	nextID int
	// done maps each received trial to its record's canonical line
	// (TrialRecord.AppendJSON's bytes, no newline): the dedupe key and
	// the merged journal's line. fold tallies the same records.
	done      map[int]string
	fold      campaign.Fold
	received  int  // newly received records this run (StopAfter counter)
	complete  bool // every trial received
	stopped   bool // run context cancelled (complete, fatal, or external)
	fatalErr  error
	cancelRun context.CancelCauseFunc

	leases, failures, splits, duplicates uint64
}

// grant is one lease handed to a worker loop: the request range plus
// the skip snapshot taken at grant time.
type grant struct {
	s       *shard
	lo, hi  int
	skip    []int
	attempt int
}

// New validates the config, opens (and on Resume replays) the
// coordinator journal, and splits the trial space.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fabric: no workers configured")
	}
	if cfg.Journal == "" {
		return nil, errors.New("fabric: no journal path configured")
	}
	if cfg.Params.CIWidth > 0 {
		return nil, errors.New("fabric: CIWidth early stopping is a sequential policy (where to stop depends on trial order); run it single-node with unsync-fault")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: campaign params: %w", err)
	}
	prog, err := cfg.Params.Program()
	if err != nil {
		return nil, fmt.Errorf("fabric: campaign params: %w", err)
	}
	spec := cfg.Params.Spec().Normalized()
	progHash := campaign.ProgHash(prog)
	key := spec.Key(progHash)

	c := &Coordinator{
		cfg:      cfg,
		spec:     spec,
		progHash: progHash,
		key:      key,
		done:     make(map[int]string, spec.Trials),
		fold:     campaign.NewFold(spec, progHash),
	}
	c.cond = sync.NewCond(&c.mu)

	var header *journalEvent
	if cfg.Resume {
		st, rerr := replayJournal(cfg.Journal, key)
		if rerr != nil {
			return nil, rerr
		}
		header = st.header
		c.resume(st.done)
	} else if info, serr := fileSize(cfg.Journal); serr != nil {
		return nil, serr
	} else if info > 0 {
		return nil, fmt.Errorf("fabric: journal %s already holds a campaign; pass -resume to continue it or remove the file to start fresh", cfg.Journal)
	}

	c.jn, err = journal.Open(cfg.Journal)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	if header == nil {
		params := cfg.Params
		if err := c.jn.Append(journalEvent{
			Event: evCampaign, Key: key, Trials: spec.Trials,
			Prog: progHash, Params: &params,
		}, true); err != nil {
			c.jn.Close()
			return nil, err
		}
	}

	c.shards = splitRange(spec.Trials, cfg.Shards)
	c.nextID = len(c.shards) + 1
	c.complete = len(c.done) == spec.Trials
	return c, nil
}

// splitRange statically partitions [0, trials) into at most n near-even
// shard ranges, ids starting at 1.
func splitRange(trials, n int) []*shard {
	if n < 1 {
		n = 1
	}
	if n > trials {
		n = trials
	}
	out := make([]*shard, 0, n)
	lo := 0
	for i := 0; i < n; i++ {
		size := trials / n
		if i < trials%n {
			size++
		}
		out = append(out, &shard{id: i + 1, lo: lo, hi: lo + size})
		lo += size
	}
	return out
}

// Close releases the coordinator journal. Run closes it implicitly on
// return; Close exists for New-but-never-Run paths.
func (c *Coordinator) Close() error { return c.jn.Close() }

// Run executes the campaign to completion (or interruption) and merges
// the result. On campaign.ErrInterrupted (context cancelled, or
// Config.StopAfter fired) it returns the partial Result, the journal
// holds every received trial, and a Resume run completes the campaign
// without re-running them. A fatal error returns the zero Result.
func (c *Coordinator) Run(ctx context.Context) (campaign.Result, error) {
	defer c.jn.Close()

	c.replayPlane()

	c.mu.Lock()
	already := c.complete
	c.mu.Unlock()
	if already {
		c.logf("resume: all %d trials already journaled; merging", c.spec.Trials)
		return c.merge()
	}
	c.logf("campaign %s: %d trials over %d workers in %d shards (%d journaled)",
		c.key, c.spec.Trials, len(c.cfg.Workers), len(c.shards), len(c.done))

	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	c.mu.Lock()
	c.cancelRun = cancel
	c.mu.Unlock()

	// Wake cond waiters when the run context dies for any reason —
	// completion, a fatal error, or external cancellation. The watcher
	// exits with the context, which the deferred cancel guarantees.
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		<-rctx.Done()
		c.mu.Lock()
		c.stopped = true
		c.mu.Unlock()
		c.cond.Broadcast()
	}()

	var wg sync.WaitGroup
	for _, url := range c.cfg.Workers {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			c.workerLoop(rctx, url)
		}(url)
	}
	wg.Wait()
	cancel(nil)
	watch.Wait()

	c.mu.Lock()
	complete := c.complete
	fatal := c.fatalErr
	c.mu.Unlock()

	if complete {
		return c.merge()
	}
	if fatal != nil {
		return campaign.Result{}, fatal
	}
	// Interrupted: like campaign.RunContext, return the partial Result
	// folded so far (resumed plus received records) with the per-trial
	// failures joined in.
	c.mu.Lock()
	res, trialErrs := c.fold.Result()
	c.mu.Unlock()
	cause := context.Cause(rctx)
	if errors.Is(cause, errStopAfter) {
		return res, errors.Join(campaign.ErrInterrupted, errStopAfter, trialErrs)
	}
	return res, errors.Join(campaign.ErrInterrupted, cause, trialErrs)
}

// releaseBackoff is the re-lease backoff after a worker failure: the
// resilience defaults (100 ms doubling to 10 s, full jitter).
var releaseBackoff resilience.Backoff

// workerLoop is one worker node's lease pump: pull a grant, execute the
// lease, absorb failures through the breaker and backoff, repeat until
// the campaign completes or the run context dies.
func (c *Coordinator) workerLoop(ctx context.Context, url string) {
	br := resilience.NewBreaker()
	fails := 0
	for ctx.Err() == nil {
		done, err := br.Allow()
		if err != nil {
			// Circuit open: this node keeps failing. Sit out a backoff
			// slice without holding any lease; other workers own the
			// trial space meanwhile.
			if !sleepCtx(ctx, releaseBackoff.Sleep(fails)) {
				return
			}
			continue
		}
		g, ok := c.next(ctx, url)
		if !ok {
			done(nil)
			return
		}
		err = c.lease(ctx, url, g)
		switch {
		case err == nil:
			done(nil)
			fails = 0
			c.finishShard(g.s)
		case errors.Is(err, errCampaignComplete):
			// The straggler stream was cut because every trial is in:
			// not a worker failure.
			done(nil)
			c.finishShard(g.s)
			return
		case ctx.Err() != nil:
			done(nil) // the run died, not the worker
			c.repend(g, url, context.Cause(ctx))
			return
		case errors.Is(err, errFatal):
			done(err)
			c.fail(err)
			return
		default:
			done(err)
			c.repend(g, url, err)
			fails++
			if !sleepCtx(ctx, releaseBackoff.Sleep(fails-1)) {
				return
			}
		}
	}
}

// next blocks until a grant is available (leasing a pending shard, or
// stealing the tail of the largest running remainder) or the run ends.
func (c *Coordinator) next(ctx context.Context, url string) (grant, bool) {
	c.mu.Lock()
	for {
		if c.complete || c.stopped || ctx.Err() != nil {
			c.mu.Unlock()
			return grant{}, false
		}
		g, evs, ok, fatal := c.pickLocked(url)
		if fatal != nil {
			c.mu.Unlock()
			c.fail(fatal)
			return grant{}, false
		}
		if ok {
			c.mu.Unlock()
			// Journal outside the lock: lease events fsync.
			for _, ev := range evs {
				if err := c.jn.Append(ev, true); err != nil {
					c.fail(errors.Join(errFatal, err))
					return grant{}, false
				}
			}
			return g, true
		}
		c.cond.Wait()
	}
}

// pickLocked chooses the next lease for url under c.mu: first pending
// shard in id order, else a steal-split of the running shard with the
// most remaining work. Returns the journal events to write after
// unlocking.
func (c *Coordinator) pickLocked(url string) (grant, []journalEvent, bool, error) {
	for _, s := range c.shards {
		if s.state != shardPending {
			continue
		}
		if len(c.remainingLocked(s)) == 0 {
			s.state = shardDone
			continue
		}
		if s.attempts >= c.cfg.ShardAttempts {
			return grant{}, nil, false, fmt.Errorf("%w: shard %d [%d,%d) failed %d lease attempts; giving up",
				errFatal, s.id, s.lo, s.hi, s.attempts)
		}
		g := c.leaseLocked(s, url)
		ev := journalEvent{Event: evLease, Shard: s.id, Lo: g.lo, Hi: g.hi, Worker: url, Attempt: s.attempts}
		return g, []journalEvent{ev}, true, nil
	}

	// Work stealing: split the straggler with the largest remainder.
	var best *shard
	bestRem := 0
	for _, s := range c.shards {
		if s.state != shardRunning {
			continue
		}
		if rem := len(c.remainingLocked(s)); rem > bestRem {
			best, bestRem = s, rem
		}
	}
	if best == nil || bestRem < 2*c.cfg.MinSteal {
		return grant{}, nil, false, nil
	}
	rem := c.remainingLocked(best)
	mid := rem[len(rem)/2]
	ns := &shard{id: c.nextID, lo: mid, hi: best.hi}
	c.nextID++
	best.hi = mid
	c.shards = append(c.shards, ns)
	c.splits++
	evs := []journalEvent{{Event: evSplit, Shard: best.id, Lo: best.lo, Hi: best.hi, At: mid, New: ns.id}}
	g := c.leaseLocked(ns, url)
	evs = append(evs, journalEvent{Event: evLease, Shard: ns.id, Lo: g.lo, Hi: g.hi, Worker: url, Attempt: ns.attempts})
	c.logf("steal: shard %d splits at %d -> shard %d [%d,%d) leased to %s", best.id, mid, ns.id, ns.lo, ns.hi, url)
	return g, evs, true, nil
}

// leaseLocked marks s running for url and snapshots its grant.
func (c *Coordinator) leaseLocked(s *shard, url string) grant {
	s.state = shardRunning
	s.worker = url
	s.attempts++
	c.leases++
	g := grant{s: s, lo: s.lo, hi: s.hi, attempt: s.attempts}
	for i := s.lo; i < s.hi; i++ {
		if _, ok := c.done[i]; ok {
			g.skip = append(g.skip, i)
		}
	}
	return g
}

// remainingLocked lists the not-yet-received indices of s's current
// range, ascending. Callers hold c.mu.
func (c *Coordinator) remainingLocked(s *shard) []int {
	var rem []int
	for i := s.lo; i < s.hi; i++ {
		if _, ok := c.done[i]; !ok {
			rem = append(rem, i)
		}
	}
	return rem
}

// resume takes in the journal-replayed records inside the trial space:
// each is folded, kept for replayPlane, and encoded once, into one
// block that done points into.
func (c *Coordinator) resume(recs map[int]*campaign.TrialRecord) {
	for idx, rec := range recs {
		if idx >= 0 && idx < c.spec.Trials {
			c.resumed = append(c.resumed, *rec)
		}
	}
	slices.SortFunc(c.resumed, func(a, b campaign.TrialRecord) int { return cmp.Compare(a.Index, b.Index) })
	var enc []byte
	ends := make([]int, len(c.resumed))
	for i := range c.resumed {
		c.fold.Add(&c.resumed[i])
		enc = c.resumed[i].AppendJSON(enc)
		ends[i] = len(enc)
	}
	block, start := string(enc), 0
	for i, end := range ends {
		c.done[c.resumed[i].Index] = block[start:end]
		start = end
	}
}

// replayPlane feeds the journal-resumed records through the streaming
// plane in trial-index order — the same order the merged journal uses —
// so a resumed coordinator's progress readout starts from the full
// campaign state rather than zero. It runs before any lease. No-op
// without a plane.
func (c *Coordinator) replayPlane() {
	c.cfg.Plane.ObserveRun(c.resumed)
	c.resumed = nil
}

// ingest folds one received run of streamed records in, under one
// lock, and returns jbuf, grown, for the caller to reuse. lines[i] is
// run[i]'s canonical encoding (TrialRecord.AppendJSON). ingest is the
// fleet's only duplicate check: a repeat (steal overlap, re-lease
// races) must carry the stored record's bytes — the canonical encoding
// is one-to-one up to TrialRecord.Equal, so anything else is a
// determinism violation that aborts the campaign, and no record after
// it in the run is taken — and is counted, never journaled or shown to
// the plane, so the plane sees each trial once. Once Config.StopAfter
// new records have arrived, no more are taken. The new records' lines
// are copied into one block per run that the done set points into and
// folded into the Result tally; then the plane observes them in
// arrival order, and they are journaled in one write through jbuf.
// run must hold records the lease already checked (campaign key, index
// inside the trial space); ingest reorders run and lines, and the
// caller may reuse both once it returns.
func (c *Coordinator) ingest(run []campaign.TrialRecord, lines [][]byte, jbuf []byte) ([]byte, error) {
	var (
		dupErr error
		block  strings.Builder // the fresh lines, back to back
		fresh  int             // run[:fresh] and lines[:fresh] are the new records
	)
	c.mu.Lock()
	for i := range run {
		if c.cfg.StopAfter > 0 && c.received >= c.cfg.StopAfter {
			break
		}
		rec, line := &run[i], lines[i]
		if prev, ok := c.done[rec.Index]; ok {
			c.duplicates++
			if prev != string(line) {
				dupErr = fmt.Errorf("%w: trial %d arrived twice with different payloads — determinism violation (worker skew?)", errFatal, rec.Index)
				break
			}
			continue
		}
		if block.Cap() == 0 {
			// One allocation for the run: no later line moves the
			// block, and a line, once stored, never changes anyway.
			size := 0
			for _, l := range lines[i:] {
				size += len(l)
			}
			block.Grow(size)
		}
		start := block.Len()
		block.Write(line)
		c.done[rec.Index] = block.String()[start:]
		c.fold.Add(rec)
		c.received++
		run[fresh], lines[fresh] = run[i], line
		fresh++
	}
	stopNow := fresh > 0 && c.cfg.StopAfter > 0 && c.received == c.cfg.StopAfter
	completeNow := dupErr == nil && fresh > 0 && len(c.done) == c.spec.Trials
	cancel := c.cancelRun
	c.mu.Unlock()

	c.cfg.Plane.ObserveRun(run[:fresh])
	jbuf = jbuf[:0]
	for _, line := range lines[:fresh] {
		jbuf = append(append(jbuf, line...), '\n')
	}
	if err := c.jn.AppendLines(jbuf, false); err != nil {
		return jbuf, errors.Join(errFatal, err)
	}
	if completeNow {
		c.mu.Lock()
		c.complete = true
		c.mu.Unlock()
		c.cond.Broadcast()
		if cancel != nil {
			cancel(errCampaignComplete)
		}
	} else if stopNow && cancel != nil {
		cancel(errStopAfter)
	}
	return jbuf, dupErr
}

// finishShard marks a shard's lease cleanly completed.
func (c *Coordinator) finishShard(s *shard) {
	c.mu.Lock()
	s.state = shardDone
	id := s.id
	c.mu.Unlock()
	_ = c.jn.Append(journalEvent{Event: evDone, Shard: id}, true)
}

// repend returns a failed lease's shard to the pending pool and wakes
// waiting workers; the next lease carries the enlarged skip list.
func (c *Coordinator) repend(g grant, url string, cause error) {
	c.mu.Lock()
	g.s.state = shardPending
	c.failures++
	id, lo, hi, att := g.s.id, g.s.lo, g.s.hi, g.s.attempts
	c.mu.Unlock()
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	_ = c.jn.Append(journalEvent{Event: evFail, Shard: id, Lo: lo, Hi: hi, Worker: url, Attempt: att, Err: msg}, true)
	c.logf("lease failed: shard %d [%d,%d) on %s (attempt %d): %v", id, lo, hi, url, att, cause)
	c.cond.Broadcast()
}

// fail records the first fatal error and tears the run down.
func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	if c.fatalErr == nil {
		c.fatalErr = err
	}
	cancel := c.cancelRun
	c.mu.Unlock()
	c.logf("fatal: %v", err)
	if cancel != nil {
		cancel(err)
	}
	c.cond.Broadcast()
}

// sleepCtx sleeps d, returning false if ctx died first. Timer-based so
// the wait is interruptible (and the repo's sleep lint stays clean).
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log == nil {
		return
	}
	fmt.Fprintf(c.cfg.Log, "fleet: "+format+"\n", args...)
}

// fileSize returns a path's size, 0 for a missing file.
func fileSize(path string) (int64, error) {
	info, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("fabric: stat journal: %w", err)
	}
	return info.Size(), nil
}

// Snapshot is a point-in-time view of the coordinator for metrics.
type Snapshot struct {
	Trials        int
	Done          int
	Complete      bool
	Shards        int
	ShardsByState map[string]int
	Leases        uint64
	Failures      uint64
	Splits        uint64
	Duplicates    uint64
}

// Snapshot reports the coordinator's current progress. Safe to call
// concurrently with Run.
func (c *Coordinator) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Trials:        c.spec.Trials,
		Done:          len(c.done),
		Complete:      c.complete,
		Shards:        len(c.shards),
		ShardsByState: map[string]int{},
		Leases:        c.leases,
		Failures:      c.failures,
		Splits:        c.splits,
		Duplicates:    c.duplicates,
	}
	for _, sh := range c.shards {
		switch sh.state {
		case shardPending:
			s.ShardsByState["pending"]++
		case shardRunning:
			s.ShardsByState["running"]++
		default:
			s.ShardsByState["done"]++
		}
	}
	return s
}

// Run is the package-level convenience: New + Run + Close.
func Run(ctx context.Context, cfg Config) (campaign.Result, error) {
	c, err := New(cfg)
	if err != nil {
		return campaign.Result{}, err
	}
	return c.Run(ctx)
}
