// Package campaign is the fault-injection campaign engine: every
// campaign in the repository (the §VI-D ROEC study, the coverage study,
// unsync-fault, the job service and the fleet) runs here, while
// internal/fault supplies the single-trial kernels. It reproduces the
// paper's §VI-D claim — "both architectures execute programs correctly
// in the presence of errors" — at statistical scale, with the
// robustness properties a long campaign needs:
//
//   - coverage-driven detection: whether a flip is detected is resolved
//     per trial from the scheme's fault.Coverage map (never hardwired),
//     so the SDC/DUE split of an unprotected structure is measurable;
//   - an expanded fault-site space: int/fp registers, the PC, data
//     memory (SpaceMem) and the uncore Communication Buffer (SpaceCB,
//     the dominant unprotected contributor in Cho et al.'s study);
//   - a worker pool with per-trial step-budget watchdogs (a livelocked
//     trial is killed and classified OutcomeHang, never looped on),
//     panic isolation, and one retry-with-reseed on harness errors;
//   - graceful degradation: a campaign always returns its partial
//     Result plus the joined per-trial errors;
//   - a JSONL checkpoint journal keyed by (program hash, seed, trial
//     index): an interrupted campaign resumes deterministically, and a
//     kill+resume run bit-matches an uninterrupted one;
//   - early stopping once the Wilson confidence interval on the SDC
//     rate narrows below a threshold.
//
// Determinism contract: every trial's fault site derives from
// (Seed, trial index, attempt) alone — never from a shared stream or
// the worker schedule — so results are identical across worker counts,
// interruptions and resumes.
package campaign

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/emu"
	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/isa"
	"github.com/cmlasu/unsync/internal/journal"
	"github.com/cmlasu/unsync/internal/stats"
	"github.com/cmlasu/unsync/internal/sweep"
)

// Scheme names accepted by Spec.Scheme.
const (
	SchemeUnSync  = "unsync"
	SchemeReunion = "reunion"
)

// Spec configures one campaign.
type Spec struct {
	// Scheme selects the recovery semantics: "unsync" or "reunion".
	Scheme string
	// Trials is the number of injection trials (default 100).
	Trials int
	// Seed drives every per-trial site derivation (default 1).
	Seed uint64
	// MaxSteps bounds the fault-free golden run (default 1_000_000).
	MaxSteps uint64
	// StepBudget is the per-trial watchdog: a faulted pair exceeding it
	// is killed and classified OutcomeHang (default 4×MaxSteps).
	StepBudget uint64
	// Spaces are the fault sites drawn from (default: all spaces).
	Spaces []fault.Space
	// Coverage resolves per-trial detection (default: the scheme's own
	// coverage map).
	Coverage fault.Coverage
	// FI is Reunion's fingerprint interval (default 10).
	FI int
	// Workers bounds the worker pool (default NumCPU via sweep.Map).
	Workers int
	// CIWidth, when positive, stops the campaign early once the Wilson
	// interval on the SDC rate is narrower than this width. Early
	// stopping is evaluated at fixed round boundaries so the stopping
	// point does not depend on the worker schedule.
	CIWidth float64
	// Checkpoint is the JSONL journal path ("" disables journaling).
	Checkpoint string
	// Resume loads completed trials from Checkpoint instead of
	// re-running them.
	Resume bool
	// StopAfter, when positive, aborts the campaign after that many
	// newly executed trials, returning ErrInterrupted with the partial
	// Result — a deterministic stand-in for a mid-campaign kill, used
	// by tests and the CI kill+resume exercise.
	StopAfter int
	// Batch is the journal chunk width: the checkpoint takes one write
	// (and a shard one serialized emit run) per chunk of up to Batch
	// trials, in index order. Workers claim passes of whole chunks and
	// classify each pass in one call of the batched structure-of-arrays
	// kernels (fault.UnSyncTrialBatch / fault.ReunionTrialBatch; see
	// passChunks). 1 selects the scalar path — the semantic reference —
	// and 0 selects DefaultBatch. Outcomes, journal records and the
	// final Result are bit-identical across batch widths, so Batch —
	// like Workers — is excluded from the journal key.
	Batch int
	// Stats, when non-nil, accumulates lane-engine scheduling counters
	// (shortcut / lockstep / retired-to-scalar lanes) across the
	// campaign. It is a side channel rather than a Result field
	// precisely so the Result stays bit-identical across batch widths.
	Stats *BatchStats
	// Observer, when non-nil, receives every classified trial record:
	// newly executed records in worker-completion order and
	// resumed-from-journal records in index order, each exactly once
	// per RunContext invocation. It is called from worker goroutines
	// and must be safe for concurrent use — the streaming results
	// plane (internal/stream) plugs in here. The hook is strictly
	// observational: it cannot alter outcomes, the Result, or journal
	// bytes, and — like Workers — it is excluded from the journal key.
	Observer func(TrialRecord)
}

// DefaultBatch is the default journal chunk width: the grain of
// checkpoint writes and shard emits. The kernels' golden cursor is
// shared by a pass of several chunks (passChunks), not by one chunk,
// so the width need not grow to amortize it.
const DefaultBatch = 32

// Z is the Wilson confidence multiplier (1.96 ≈ 95%) of every campaign
// interval: the Result's SDC bounds, early stopping, and the streaming
// plane's convergence tracker.
const Z = 1.96

// BatchStats aggregates fault.BatchStats across a campaign's worker
// batches. Safe for concurrent use; read it after the campaign
// returns.
type BatchStats struct {
	lanes, shortcut, lockstep, retired atomic.Uint64
	cursorSteps, laneSteps             atomic.Uint64
}

// add folds one kernel invocation's counters in. A nil receiver
// ignores the sample so callers can pass Spec.Stats through unchecked.
func (s *BatchStats) add(b fault.BatchStats) {
	if s == nil {
		return
	}
	s.lanes.Add(b.Lanes)
	s.shortcut.Add(b.Shortcut)
	s.lockstep.Add(b.Lockstep)
	s.retired.Add(b.Retired)
	s.cursorSteps.Add(b.CursorSteps)
	s.laneSteps.Add(b.LaneSteps)
}

// Lanes returns the number of trials classified by batch kernels.
func (s *BatchStats) Lanes() uint64 { return s.lanes.Load() }

// Shortcut returns the lanes classified statically against the golden
// run, without emulating an instruction.
func (s *BatchStats) Shortcut() uint64 { return s.shortcut.Load() }

// Lockstep returns the lanes that completed inside the lockstep group.
func (s *BatchStats) Lockstep() uint64 { return s.lockstep.Load() }

// Retired returns the lanes that retired to the scalar finishing path.
func (s *BatchStats) Retired() uint64 { return s.retired.Load() }

// CursorSteps returns the instructions the kernels' golden cursors
// replayed to reach their lanes' fork points.
func (s *BatchStats) CursorSteps() uint64 { return s.cursorSteps.Load() }

// LaneSteps returns the instructions the kernels emulated on faulted
// lanes.
func (s *BatchStats) LaneSteps() uint64 { return s.laneSteps.Load() }

// RetiredFrac returns the fraction of batch lanes that retired to the
// scalar path (0 when no lanes ran batched).
func (s *BatchStats) RetiredFrac() float64 {
	if n := s.lanes.Load(); n > 0 {
		return float64(s.retired.Load()) / float64(n)
	}
	return 0
}

// Normalized returns the spec with every default applied — the exact
// spec a campaign runs under. Exported for the distributed fabric,
// which must know the defaulted trial count (and batch width) to split
// the trial space without re-implementing the defaulting rules.
// Idempotent: Normalized(Normalized(s)) == Normalized(s).
func (s Spec) Normalized() Spec { return s.withDefaults() }

func (s Spec) withDefaults() Spec {
	if s.Scheme == "" {
		s.Scheme = SchemeUnSync
	}
	if s.Trials == 0 {
		s.Trials = 100
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.MaxSteps == 0 {
		s.MaxSteps = 1_000_000
	}
	if s.StepBudget == 0 {
		s.StepBudget = 4 * s.MaxSteps
	}
	if len(s.Spaces) == 0 {
		s.Spaces = AllSpaces()
	}
	if s.Coverage == nil {
		switch s.Scheme {
		case SchemeReunion:
			s.Coverage = fault.ReunionCoverage()
		default:
			s.Coverage = fault.UnSyncCoverage()
		}
	}
	if s.FI == 0 {
		s.FI = 10
	}
	if s.Batch == 0 {
		s.Batch = DefaultBatch
	}
	if s.Batch < 1 {
		s.Batch = 1
	}
	return s
}

// Validate reports a spec no campaign can run: a negative trial count,
// an unknown scheme, an invalid fault space, or a fingerprint interval
// below 1. Defaults apply first, so zero fields are valid. RunContext
// and RunShard call it; the job service calls it at submit.
func (s Spec) Validate() error {
	s = s.withDefaults()
	if s.Trials < 0 {
		return fmt.Errorf("campaign: negative trial count %d", s.Trials)
	}
	if s.Scheme != SchemeUnSync && s.Scheme != SchemeReunion {
		return fmt.Errorf("campaign: unknown scheme %q (want %s or %s)",
			s.Scheme, SchemeUnSync, SchemeReunion)
	}
	for _, sp := range s.Spaces {
		if sp >= fault.NumSpaces {
			return fmt.Errorf("campaign: invalid space %d", sp)
		}
	}
	if s.FI < 1 {
		return fmt.Errorf("campaign: fingerprint interval %d, want at least 1", s.FI)
	}
	return nil
}

// AllSpaces returns every injectable fault space.
func AllSpaces() []fault.Space {
	out := make([]fault.Space, 0, fault.NumSpaces)
	for sp := fault.Space(0); sp < fault.NumSpaces; sp++ {
		out = append(out, sp)
	}
	return out
}

// Result is the aggregated campaign outcome. Every field derives
// deterministically from (program, Spec), so an interrupted-and-resumed
// campaign reproduces the uninterrupted Result bit for bit.
type Result struct {
	Scheme    string
	Prog      string // program hash
	Seed      uint64
	Requested int  // Spec.Trials
	Ran       int  // trials evaluated (early stopping may cut below Requested)
	Failed    int  // trials that errored even after retries (excluded from Tally)
	EarlyStop bool // the Wilson interval narrowed below Spec.CIWidth

	Tally   fault.CampaignResult
	BySpace map[string]fault.CampaignResult

	// Events mirrors the Tally under the repository-wide counter
	// taxonomy (internal/events), so campaign outcomes surface on the
	// same /metrics path as pipeline counters. Derived
	// purely from the final Tally, never from scheduling order, so a
	// resumed campaign reproduces it bit for bit.
	Events events.Counts

	// SDCRate is SDC / successful trials, with its Wilson interval.
	SDCRate      float64
	SDCLo, SDCHi float64
}

// ErrInterrupted reports a campaign aborted by Spec.StopAfter; the
// Result returned alongside holds the partial tally.
var ErrInterrupted = errors.New("campaign: interrupted")

// ErrKeyMismatch reports a resume pointed at a checkpoint journal whose
// records were written under a different params key: the journaled
// trials belong to a different program, scheme, seed, space set or
// budget, so none of them can satisfy this campaign.
var ErrKeyMismatch = errors.New("campaign: checkpoint params key mismatch")

// describeForeign summarizes the foreign keys found in a mismatched
// journal, sorted so the message is stable.
func describeForeign(foreign map[string]int) string {
	keys := make([]string, 0, len(foreign))
	//unsync:allow-maprange keys are sorted immediately below; order-independent
	for k := range foreign {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0
	for _, k := range keys {
		total += foreign[k]
	}
	const show = 3
	shown := keys
	more := ""
	if len(shown) > show {
		shown = shown[:show]
		more = fmt.Sprintf(" (+%d more)", len(keys)-show)
	}
	return fmt.Sprintf("%d record(s) under key(s) %s%s", total, strings.Join(shown, ", "), more)
}

// roundSize is the early-stopping granularity. It is a fixed constant —
// not derived from Workers — so the stopping point, and therefore the
// Result, is identical for any worker count. Only a campaign that can
// stop early (CIWidth > 0) runs in rounds: any other runs every pending
// trial through one worker pool, so no round barrier idles a worker
// and the pool is not capped at one round's chunks.
const roundSize = 64

// Run executes the campaign. The error joins every per-trial failure
// (and ErrInterrupted when StopAfter fired); the Result is always
// meaningful — partial if interrupted, complete otherwise.
func Run(prog *asm.Program, spec Spec) (Result, error) {
	return RunContext(context.Background(), prog, spec)
}

// RunContext is Run under a context. Cancelling ctx degrades the
// campaign instead of aborting it: scheduling stops within one trial
// quantum, in-flight trials are interrupted (they observe ctx through
// the trial runners), every classified trial of a finished chunk is
// already written to the checkpoint journal, and the partial Result
// comes back alongside errors.Join(ErrInterrupted, cause) — so a
// cancelled campaign is a resumable checkpoint, not a wasted run.
//
// The journal takes one write per chunk (at most Spec.Batch records,
// in index order, encoded with TrialRecord.AppendJSON). A worker
// journals a pass's chunks once the whole pass is classified, so a
// kill of the process loses at most the passes in flight, one per
// worker; a resume re-runs them deterministically.
func RunContext(ctx context.Context, prog *asm.Program, spec Spec) (Result, error) {
	spec = spec.withDefaults()
	fold := NewFold(spec, "")
	if err := spec.Validate(); err != nil {
		return fold.res, err
	}

	// The golden run is recorded once; every batch reads its trace.
	tr, err := fault.RecordTrace(prog, spec.MaxSteps)
	if err != nil {
		return fold.res, err
	}
	fold.res.Prog = ProgHash(prog)
	key := spec.Key(fold.res.Prog)

	var loaded []TrialRecord // resumed records by index; empty Key = none
	var jn *journal.Log
	if spec.Checkpoint != "" {
		if spec.Resume {
			var n int
			var foreign map[string]int
			loaded, n, foreign, err = loadJournal(spec.Checkpoint, key, fold.res.Prog, spec.Trials)
			if err != nil {
				return fold.res, err
			}
			if n == 0 && len(foreign) > 0 {
				// The journal holds records — just none for this campaign.
				// Starting fresh here would silently discard the work the
				// user pointed -resume at: the flags (or the program) no
				// longer match the journaled params key. Fail loudly.
				return fold.res, fmt.Errorf("%w: journal %s holds %s but none for params key %s — the program, scheme, seed, spaces or budgets differ from the journaled run (re-run with the original flags, or drop -resume to start fresh against a new journal)",
					ErrKeyMismatch, spec.Checkpoint, describeForeign(foreign), key)
			}
		}
		jn, err = journal.Open(spec.Checkpoint)
		if err != nil {
			return fold.res, fmt.Errorf("campaign: %w", err)
		}
		// Every append is already written through; Close only releases
		// the descriptor.
		defer func() { _ = jn.Close() }()
	}

	// Each delivered chunk goes to the Observer, then into the fold,
	// then to the journal, so the Result counts a record iff the
	// Observer saw it. The fold's lock is taken once per chunk.
	var foldMu sync.Mutex
	sink := func(crecs []TrialRecord) error {
		if spec.Observer != nil {
			for j := range crecs {
				if crecs[j].Key != "" {
					spec.Observer(crecs[j])
				}
			}
		}
		foldMu.Lock()
		for j := range crecs {
			if crecs[j].Key != "" {
				fold.Add(&crecs[j])
			}
		}
		foldMu.Unlock()
		return journalChunk(jn, crecs)
	}

	round := spec.Trials
	if spec.CIWidth > 0 {
		round = roundSize
	}
	newly := 0 // trials executed (not resumed) by this invocation
	interrupted := false
	for lo := 0; lo < spec.Trials && !interrupted; lo += round {
		hi := min(lo+round, spec.Trials)
		var todo []int
		for i := lo; i < hi; i++ {
			if i < len(loaded) && loaded[i].Key != "" {
				// Resumed records fold at their round, not at decode: the
				// journal may hold records past an early-stop point (Trials
				// and CIWidth are outside the key), and those must not
				// count. They replay through the observer so a streaming
				// plane sees the whole campaign, not just the tail executed
				// after the restart; the DLQ's replayed sidecar keeps an
				// already-captured entry from being written twice.
				if spec.Observer != nil {
					spec.Observer(loaded[i])
				}
				fold.Add(&loaded[i])
			} else {
				todo = append(todo, i)
			}
		}
		if spec.StopAfter > 0 && newly+len(todo) > spec.StopAfter {
			todo = todo[:spec.StopAfter-newly]
			interrupted = true
		}
		newly += len(todo)
		// Workers claim passes of whole chunks (runPasses). sweep
		// recovers per-pass panics into indexed errors (one corrupted
		// trial cannot take down the campaign) and stops scheduling
		// passes once ctx is cancelled or a pass panics. A trial that
		// was cancelled, never scheduled or panicked before producing a
		// record never reaches the sink, so it is not tallied.
		mapErr := runPasses(ctx, prog, tr, spec, key, fold.res.Prog, todo, sink)
		if ctx.Err() != nil {
			mapErr = errors.Join(ErrInterrupted, context.Cause(ctx), mapErr)
		}
		if mapErr != nil {
			res, aggErr := fold.Result()
			return res, errors.Join(mapErr, aggErr)
		}
		if spec.CIWidth > 0 && !interrupted {
			k, n := uint64(fold.res.Tally.SDC), uint64(fold.res.Tally.Trials)
			if lo95, hi95 := stats.Wilson(k, n, Z); n > 0 && hi95-lo95 < spec.CIWidth {
				fold.res.EarlyStop = true
				break
			}
		}
	}

	res, err := fold.Result()
	if interrupted {
		// Graceful degradation: the Result tallies what completed, and
		// the interruption is reported alongside any per-trial errors.
		return res, errors.Join(ErrInterrupted, err)
	}
	return res, err
}

// lineBufs recycles the per-chunk journal buffers across workers.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// journalChunk appends every classified record of a chunk — including
// the ones a cancelled batch completed before the interrupt — to jn
// (when non-nil) in one write, in trial-index order, so the journal
// byte stream is identical across batch widths. The write reaches the
// OS, not the disk: a completed chunk survives a kill of the process.
func journalChunk(jn *journal.Log, crecs []TrialRecord) error {
	if jn == nil {
		return nil
	}
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	lines := (*buf)[:0]
	first := -1
	for j := range crecs {
		if crecs[j].Key == "" {
			continue
		}
		if first < 0 {
			first = crecs[j].Index
		}
		lines = append(crecs[j].AppendJSON(lines), '\n')
	}
	*buf = lines
	if err := jn.AppendLines(lines, false); err != nil {
		return fmt.Errorf("campaign: checkpoint chunk from trial %d: %w", first, err)
	}
	return nil
}

// Fold builds a campaign Result from trial records added one at a time
// in any order: the tallies are counts, and Result sorts the failed
// trials' errors by index, so the Result and its error equal those of
// a single-node run over the same records, bit for bit. It is the one
// aggregation path: RunContext folds each chunk as a worker delivers it
// (and each resumed record at its round), and the fleet coordinator
// folds each record as it arrives.
type Fold struct {
	res    Result
	spaces []spaceTally // BySpace, in first-seen order
	errs   []trialErr
}

// spaceTally is one fault space's share of the tally. A campaign draws
// from a handful of spaces, so a scan beats hashing each record's name.
type spaceTally struct {
	name  string
	tally fault.CampaignResult
}

// trialErr is one failed trial's error, kept with its index for the
// final sort.
type trialErr struct {
	index int
	err   error
}

// NewFold starts the Fold of spec's campaign over the program with hash
// progHash.
func NewFold(spec Spec, progHash string) Fold {
	spec = spec.withDefaults()
	return Fold{res: Result{
		Scheme:    spec.Scheme,
		Prog:      progHash,
		Seed:      spec.Seed,
		Requested: spec.Trials,
	}}
}

// Add folds one record in. Each trial must be added at most once.
func (f *Fold) Add(rec *TrialRecord) {
	f.res.Ran++
	if rec.Err != "" {
		f.res.Failed++
		var err error
		if len(rec.AttemptErrs) > 0 {
			// Surface the full retry chain, not just the terminal
			// attempt — each reseeded site failed differently and the
			// earlier causes are what make the failure diagnosable.
			err = fmt.Errorf("campaign: trial %d: %s [%s]",
				rec.Index, rec.Err, strings.Join(rec.AttemptErrs, "; "))
		} else {
			err = fmt.Errorf("campaign: trial %d: %s", rec.Index, rec.Err)
		}
		f.errs = append(f.errs, trialErr{rec.Index, err})
		return
	}
	o, ok := fault.OutcomeByName(rec.Outcome)
	if !ok {
		f.res.Failed++
		f.errs = append(f.errs, trialErr{rec.Index, fmt.Errorf("campaign: trial %d: bad journaled outcome %q", rec.Index, rec.Outcome)})
		return
	}
	f.res.Tally.Add(o)
	for i := range f.spaces {
		if f.spaces[i].name == rec.Space {
			f.spaces[i].tally.Add(o)
			return
		}
	}
	f.spaces = append(f.spaces, spaceTally{name: rec.Space})
	f.spaces[len(f.spaces)-1].tally.Add(o)
}

// Result completes the fold: Ran counts the records added, and the
// error joins every failed trial's error in index order.
func (f *Fold) Result() (Result, error) {
	r := f.res
	r.BySpace = make(map[string]fault.CampaignResult, len(f.spaces))
	for _, sp := range f.spaces {
		r.BySpace[sp.name] = sp.tally
	}
	if n := uint64(r.Tally.Trials); n > 0 {
		r.SDCRate = float64(r.Tally.SDC) / float64(n)
		r.SDCLo, r.SDCHi = stats.Wilson(uint64(r.Tally.SDC), n, Z)
	} else {
		r.SDCLo, r.SDCHi = stats.Wilson(0, 0, Z)
	}
	r.Events = events.Counts{
		events.CampaignTrials:        uint64(r.Tally.Trials),
		events.CampaignBenign:        uint64(r.Tally.Benign),
		events.CampaignRecovered:     uint64(r.Tally.Recovered),
		events.CampaignUnrecoverable: uint64(r.Tally.Unrecoverable),
		events.CampaignSDC:           uint64(r.Tally.SDC),
		events.CampaignHang:          uint64(r.Tally.Hangs),
	}
	slices.SortFunc(f.errs, func(a, b trialErr) int { return cmp.Compare(a.index, b.index) })
	errs := make([]error, len(f.errs))
	for i, e := range f.errs {
		errs[i] = e.err
	}
	return r, errors.Join(errs...)
}

// attempts is how many times runTrial tries one trial: the first try
// plus one retry with a reseeded site after a harness error.
const attempts = 2

// executeTrial is the trial executor; a package variable so tests can
// inject harness failures (execute itself cannot fail for derived
// sites, which are valid by construction).
var executeTrial = execute

// runTrial executes one trial, retrying with a reseeded site on harness
// (non-outcome) errors. It returns a record for every completed trial —
// on repeated harness failure the record carries the last error plus
// the full per-attempt chain (AttemptErrs: each attempt's reseeded
// site and its cause, so no earlier failure is lost to the retry
// loop). The returned error is non-nil only when ctx was cancelled
// mid-trial: the trial has no outcome and must not be journaled or
// tallied.
func runTrial(ctx context.Context, prog *asm.Program, g *emu.Machine, spec Spec, key, hash string, idx int) (TrialRecord, error) {
	rec := TrialRecord{Key: key, Prog: hash, Seed: spec.Seed, Index: idx}
	var lastErr error
	var chain []string
	for attempt := range attempts {
		step, f := deriveSite(spec, g.InstCount, prog, idx, attempt)
		o, detected, err := executeTrial(ctx, prog, g, spec, step, f)
		rec.Space = f.Space.String()
		rec.Reg = f.Index
		rec.Bit = f.Bit
		rec.Addr = f.Addr
		rec.Step = step
		rec.Detected = detected
		rec.Attempts = attempt + 1
		if err == nil {
			rec.Outcome = o.String()
			return rec, nil
		}
		if cerr := context.Cause(ctx); cerr != nil {
			return rec, cerr
		}
		lastErr = err
		chain = append(chain, fmt.Sprintf("attempt %d (space=%s reg=%d bit=%d addr=%#x step=%d): %v",
			attempt+1, rec.Space, rec.Reg, rec.Bit, rec.Addr, rec.Step, err))
	}
	rec.Err = lastErr.Error()
	rec.AttemptErrs = chain
	return rec, nil
}

// chunkIndices groups trial indices into groups of at most width,
// preserving index order.
func chunkIndices(idxs []int, width int) [][]int {
	if width < 1 {
		width = 1
	}
	out := make([][]int, 0, (len(idxs)+width-1)/width)
	for lo := 0; lo < len(idxs); lo += width {
		hi := lo + width
		if hi > len(idxs) {
			hi = len(idxs)
		}
		out = append(out, idxs[lo:hi])
	}
	return out
}

// maxPassChunks caps the journal chunks in one worker pass. Each kernel
// call runs a golden cursor up to its last surviving lane's fork, so a
// pass of n chunks replays the golden prefix once where n chunks would
// replay it n times. At 16 chunks (512 trials at DefaultBatch) the
// cursor is under 8 % of the lane steps of a checksum campaign; the
// benchmark's campaign workload on 2 vCPUs read 200k, 204k, 227k and
// 216k trials/cpu-s at caps of 4, 8, 16 and 32.
const maxPassChunks = 16

// passChunks sizes a worker pass from the trials pending in one
// scheduling call and the pool's size: enough chunks per pass to share
// the cursor, but at least four passes per worker, so a small campaign
// still spreads over the whole pool and a cancel still finds passes
// left to skip. The scalar path (Batch 1) has no cursor to share and
// keeps one chunk per pass.
func passChunks(pending, workers int, spec Spec) int {
	if spec.Batch <= 1 {
		return 1
	}
	per := spec.Batch * workers * 4
	return min(max((pending+per-1)/per, 1), maxPassChunks)
}

// runPasses runs the pending trials todo on the worker pool, the one
// scheduling path of RunContext and RunShard. A worker's unit of work
// is a pass: whole Batch-wide chunks of todo, classified by one kernel
// call (runTrialPass), then handed to sink chunk by chunk in index
// order. The chunks are the ones a pass of one chunk would form, so
// sink sees the same record groups at every pass width. A pass stops
// at the first chunk sink fails; the records sink was handed are the
// only ones the campaign ever sees. It returns sweep's error.
func runPasses(ctx context.Context, prog *asm.Program, tr *fault.Trace, spec Spec, key, hash string, todo []int, sink func([]TrialRecord) error) error {
	workers := sweep.Workers(spec.Workers)
	passes := chunkIndices(todo, spec.Batch*passChunks(len(todo), workers, spec))
	_, err := sweep.MapContext(ctx, passes, workers, func(ctx context.Context, pass []int) (struct{}, error) {
		recs, err := runTrialPass(ctx, prog, tr, spec, key, hash, pass)
		for lo := 0; lo < len(recs); lo += spec.Batch {
			if serr := sink(recs[lo:min(lo+spec.Batch, len(recs))]); serr != nil {
				return struct{}{}, serr
			}
		}
		return struct{}{}, err
	})
	return err
}

// runTrialPass executes a pass of trials through one call of the
// batched lane kernels, stamping each record with the params key and
// the caller's program hash. The scalar runTrial path handles a pass of
// one trial (which Batch 1 always gives), and any lane the kernel hands
// back with a harness error — preserving the scalar retry-with-reseed
// contract exactly. The returned slice parallels
// pass; a zero record (empty Key) means the trial was interrupted
// before classification and must not be journaled or tallied.
func runTrialPass(ctx context.Context, prog *asm.Program, tr *fault.Trace, spec Spec, key, hash string, pass []int) ([]TrialRecord, error) {
	g := tr.Golden
	recs := make([]TrialRecord, len(pass))
	if len(pass) == 1 {
		for j, i := range pass {
			rec, err := runTrial(ctx, prog, g, spec, key, hash, i)
			if err != nil {
				return recs, err
			}
			recs[j] = rec
		}
		return recs, nil
	}

	// Derive every lane's site (attempt 0, exactly as the scalar path
	// starts) and resolve it as execute does; ECC-corrected strikes
	// classify inline.
	kTrials := make([]fault.BatchTrial, 0, len(pass))
	kPos := make([]int, 0, len(pass)) // kernel lane -> position in pass
	for j, i := range pass {
		step, f := deriveSite(spec, g.InstCount, prog, i, 0)
		detected, transient, corrected := spec.resolve(f.Space)
		recs[j] = TrialRecord{
			Key: key, Prog: hash, Seed: spec.Seed, Index: i,
			Space: f.Space.String(), Reg: f.Index, Bit: f.Bit, Addr: f.Addr,
			Step: step, Detected: detected, Attempts: 1,
		}
		if corrected {
			recs[j].Outcome = fault.OutcomeRecovered.String()
			continue
		}
		kTrials = append(kTrials, fault.BatchTrial{Step: step, Flip: f, Transient: transient, Detected: detected})
		kPos = append(kPos, j)
	}
	if len(kTrials) == 0 {
		return recs, nil
	}

	opts := fault.TrialOpts{MaxSteps: spec.MaxSteps, StepBudget: spec.StepBudget, Golden: g, Trace: tr, Ctx: ctx}
	var out []fault.BatchResult
	var bs fault.BatchStats
	var kerr error
	if spec.Scheme == SchemeReunion {
		out, bs, kerr = fault.ReunionTrialBatch(prog, kTrials, spec.FI, opts)
	} else {
		out, bs, kerr = fault.UnSyncTrialBatch(prog, kTrials, opts)
	}
	spec.Stats.add(bs)

	// A kernel lane's record holds its site until the outcome is
	// known; a lane left unclassified goes back to the zero record.
	for k, j := range kPos {
		switch {
		case out[k].Err != nil:
			// The kernel could not classify the lane (an invalid site,
			// unreachable for derived sites): the scalar path owns it,
			// including retries.
			rec, err := runTrial(ctx, prog, g, spec, key, hash, pass[j])
			if err != nil {
				for _, j := range kPos[k:] {
					recs[j] = TrialRecord{}
				}
				return recs, err
			}
			recs[j] = rec
		case out[k].Done:
			recs[j].Outcome = out[k].Outcome.String()
		default:
			recs[j] = TrialRecord{}
		}
	}
	return recs, kerr
}

// resolve is the coverage policy: it maps a fault space to whether the
// scheme detects the flip, whether a Reunion flip is in flight
// (transient) rather than a persistent state upset, and whether ECC
// corrects it before execution ever observes it. Both the scalar and
// the batched trial paths classify through it.
func (s Spec) resolve(sp fault.Space) (detected, transient, corrected bool) {
	det := s.Coverage.Detects(sp)
	if s.Scheme != SchemeReunion {
		return det != fault.DetectNone, false, false
	}
	switch det {
	case fault.DetectFingerprint:
		// Inside Reunion's ROEC: the corruption is in flight and the
		// window comparison catches it before commit.
		return true, true, false
	case fault.DetectECC:
		// SECDED corrects the single-bit upset at the next access.
		return true, false, true
	default:
		// Outside the ROEC: a persistent state upset that rollback
		// cannot scrub.
		return det != fault.DetectNone, false, false
	}
}

// execute runs one derived site through the scheme's recovery
// semantics, resolving detection from the coverage map.
func execute(ctx context.Context, prog *asm.Program, g *emu.Machine, spec Spec, step uint64, f fault.Flip) (fault.Outcome, bool, error) {
	opts := fault.TrialOpts{MaxSteps: spec.MaxSteps, StepBudget: spec.StepBudget, Golden: g, Ctx: ctx}
	detected, transient, corrected := spec.resolve(f.Space)
	var o fault.Outcome
	var err error
	switch {
	case corrected:
		o = fault.OutcomeRecovered
	case spec.Scheme == SchemeReunion:
		o, err = fault.RunReunionTrial(prog, step, f, transient, spec.FI, opts)
	default:
		o, err = fault.RunUnSyncTrial(prog, step, f, detected, opts)
	}
	return o, detected, err
}

// deriveSite maps (seed, trial index, attempt) to a fault site through
// a private splitmix64 stream. Sites are independent per trial — no
// shared stream — so any subset of trials can run in any order, on any
// number of workers, and reproduce identically. Every drawn flip is in
// range by construction and passes fault.Flip.Validate.
func deriveSite(spec Spec, instCount uint64, prog *asm.Program, idx, attempt int) (uint64, fault.Flip) {
	r := newSiteRNG(spec.Seed, idx, attempt)
	step := r.next() % instCount
	f := fault.Flip{Space: spec.Spaces[r.next()%uint64(len(spec.Spaces))]}
	switch f.Space {
	case fault.SpaceIntReg:
		f.Index = uint8(1 + r.next()%uint64(isa.NumRegs-1))
		f.Bit = uint8(r.next() % 64)
	case fault.SpaceFPReg:
		f.Index = uint8(r.next() % uint64(isa.NumRegs))
		f.Bit = uint8(r.next() % 64)
	case fault.SpacePC:
		f.Bit = uint8(r.next() % 6)
	case fault.SpaceMem:
		span := uint64(len(prog.Data))
		if span == 0 {
			span = 8
		}
		f.Addr = prog.DataBase + r.next()%span
		f.Bit = uint8(r.next() % 64)
	case fault.SpaceCB:
		f.Bit = uint8(r.next() % 64)
	}
	return step, f
}

// siteRNG is a splitmix64 stream; unlike fault.Arrivals it is keyed per
// (seed, index, attempt) so trials never share state.
type siteRNG struct{ s uint64 }

func newSiteRNG(seed uint64, idx, attempt int) *siteRNG {
	s := seed ^ 0x9e3779b97f4a7c15
	s = mix64(s + uint64(idx)*0xbf58476d1ce4e5b9)
	s = mix64(s + uint64(attempt)*0x94d049bb133111eb)
	return &siteRNG{s: s}
}

func (r *siteRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ProgHash is a stable content hash of an assembled program — the
// checkpoint key component that ties journaled trials to the exact
// workload they ran.
func ProgHash(p *asm.Program) string {
	h := sha256.New()
	for _, in := range p.Insts {
		fmt.Fprintf(h, "%d %d %d %d %d\n", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
	}
	fmt.Fprintf(h, "@%d\n", p.DataBase)
	h.Write(p.Data)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Key fingerprints everything that affects a trial's derivation and
// semantics. Journaled records from a different key never satisfy a
// resume — a changed program, seed, coverage or budget re-runs cleanly.
// Trials, CIWidth, Workers and Batch are deliberately excluded: they
// select which trials run and how they are scheduled, not what any one
// trial computes (batch kernels classify bit-identically to the scalar
// path), so a journal remains valid across them. The literal 0 after
// FI fills the slot of a retired per-trial wall-clock timeout, so keys
// (and every journal written under them) stay what they were.
//
// Exported because the distributed fabric (internal/fabric) uses the
// key as the lease-protocol contract: a worker recomputes it from the
// shard request's params and refuses ranges whose key disagrees.
//
// The spec is normalized (withDefaults) before hashing, so a raw spec
// and its defaulted form derive the same key: the coordinator, the
// worker and the journal all agree regardless of which fields were
// spelled out.
func (s Spec) Key(progHash string) string {
	s = s.withDefaults()
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|%d|0|", progHash, s.Scheme, s.Seed, s.MaxSteps, s.StepBudget, s.FI)
	for _, sp := range s.Spaces {
		fmt.Fprintf(h, "%d,", sp)
	}
	h.Write([]byte("|"))
	targets := make([]int, 0, len(s.Coverage))
	//unsync:allow-maprange keys are sorted before hashing; order-independent
	for t := range s.Coverage {
		targets = append(targets, int(t))
	}
	sort.Ints(targets)
	for _, t := range targets {
		fmt.Fprintf(h, "%d=%d,", t, s.Coverage[fault.Target(t)])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
