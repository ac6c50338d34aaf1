package campaign

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/fault"
)

// RunShard executes the trial range [lo, hi) of a campaign, skipping
// the indices in skip, and hands the classified TrialRecords to emit
// one journal chunk at a time. It is the worker half of the distributed
// campaign fabric: a shard is just a contiguous slice of the
// deterministic trial sequence, so any worker can run any range — sites
// derive from (Seed, index, attempt) alone — and the records it emits
// are bit-identical to the ones a single-node run would journal for the
// same indices.
//
// emit receives each chunk the single-node path would journal in one
// write (at most Spec.Batch records, in trial-index order), minus any
// trial interrupted before classification; it is called serialized
// (never concurrently), never with an empty chunk, and chunks arrive in
// completion order — the same ordering contract as the single-node
// checkpoint journal under multiple workers. emit may not keep the
// slice after it returns. An emit error aborts the shard.
// Spec.Checkpoint, Resume, CIWidth and StopAfter are ignored:
// journaling, dedupe and stopping policy belong to the coordinator, not
// the shard.
//
// The returned error is non-nil when the shard was cut short (context
// cancellation, a panicking pass, or an emit failure): some records
// may have been emitted, none were lost. Per-trial harness failures do
// NOT abort the shard — they are emitted as records carrying Err,
// exactly as the single-node path journals them.
func RunShard(ctx context.Context, prog *asm.Program, spec Spec, lo, hi int, skip map[int]bool, emit func([]TrialRecord) error) error {
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
	return runPasses(ctx, prog, tr, spec, key, hash, todo, func(crecs []TrialRecord) error {
		// Drop trials interrupted before classification; no one reads
		// a pass's records after its sink, so compacting in place is
		// safe.
		crecs = slices.DeleteFunc(crecs, func(r TrialRecord) bool { return r.Key == "" })
		if len(crecs) == 0 {
			return nil
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		return emit(crecs)
	})
}
