package campaign

import (
	"context"
	"fmt"
	"sync"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/fault"
)

// RunShard executes the trial range [lo, hi) of a campaign, skipping
// the indices in skip, and hands every classified TrialRecord to emit.
// It is the worker half of the distributed campaign fabric: a shard is
// just a contiguous slice of the deterministic trial sequence, so any
// worker can run any range — sites derive from (Seed, index, attempt)
// alone — and the records it emits are bit-identical to the ones a
// single-node run would journal for the same indices.
//
// emit is called exactly once per classified trial, serialized (never
// concurrently), in trial-index order within each chunk but in
// completion order across chunks — the same ordering contract as the
// single-node checkpoint journal under multiple workers. An emit error
// aborts the shard. Spec.Checkpoint, Resume, CIWidth and StopAfter are
// ignored: journaling, dedupe and stopping policy belong to the
// coordinator, not the shard.
//
// The returned error is non-nil when the shard was cut short (context
// cancellation, a panicking pass, or an emit failure): some records
// may have been emitted, none were lost. Per-trial harness failures do
// NOT abort the shard — they are emitted as records carrying Err,
// exactly as the single-node path journals them.
func RunShard(ctx context.Context, prog *asm.Program, spec Spec, lo, hi int, skip map[int]bool, emit func(TrialRecord) error) error {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return err
	}
	if lo < 0 || hi > spec.Trials || lo > hi {
		return fmt.Errorf("campaign: shard range [%d, %d) outside trial space [0, %d)", lo, hi, spec.Trials)
	}

	tr, err := fault.RecordTrace(prog, spec.MaxSteps)
	if err != nil {
		return err
	}
	hash := ProgHash(prog)
	key := spec.Key(hash)

	var todo []int
	for i := lo; i < hi; i++ {
		if !skip[i] {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		return nil
	}

	var emitMu sync.Mutex
	_, _, mapErr := runPasses(ctx, prog, tr, spec, key, hash, todo, func(crecs []TrialRecord) error {
		emitMu.Lock()
		defer emitMu.Unlock()
		for j := range crecs {
			if crecs[j].Key == "" {
				continue // interrupted before classification
			}
			if err := emit(crecs[j]); err != nil {
				return err
			}
		}
		return nil
	})
	return mapErr
}

// AggregateRecords rebuilds the campaign Result that a completed
// single-node run over the same trial records would report: the same
// tally, per-space split, Wilson interval and event counters, bit for
// bit. recs must hold exactly one record per trial index in
// [0, spec.Trials) — the merge layer's dedupe and completeness check
// run first — and every record must carry the spec's params key.
func AggregateRecords(spec Spec, progHash string, recs []*TrialRecord) (Result, error) {
	spec = spec.withDefaults()
	res := Result{
		Scheme:    spec.Scheme,
		Prog:      progHash,
		Seed:      spec.Seed,
		Requested: spec.Trials,
		BySpace:   make(map[string]fault.CampaignResult),
	}
	if len(recs) != spec.Trials {
		return res, fmt.Errorf("campaign: aggregate wants %d records, got %d", spec.Trials, len(recs))
	}
	key := spec.Key(progHash)
	for i, rec := range recs {
		if rec == nil {
			return res, fmt.Errorf("campaign: aggregate missing record for trial %d", i)
		}
		if rec.Index != i {
			return res, fmt.Errorf("campaign: aggregate record %d carries index %d; records must be in trial order", i, rec.Index)
		}
		if rec.Key != key {
			return res, fmt.Errorf("%w: record %d carries key %s, want %s", ErrKeyMismatch, i, rec.Key, key)
		}
	}
	return res, res.finish(recs, spec.Trials, spec)
}
