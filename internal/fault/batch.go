package fault

import (
	"fmt"
	"sort"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/emu"
)

// This file implements the batched trial kernels: B injection trials of
// the same program classified against one shared golden run. The
// scalar kernels in functional.go remain the semantic reference — the
// batched kernels must classify every trial exactly as the scalar ones
// would, and the differential tests in batch_test.go pin that
// equivalence trial by trial.
//
// The UnSync kernel exploits three structural facts of RunUnSyncTrial:
//
//  1. Core B is never faulted, so B always replays the golden
//     trajectory. A detected flip striking before program completion is
//     therefore always OutcomeRecovered: recovery copies B's clean
//     state (or clean memory word) over A at the strike point, after
//     which A rejoins the golden trajectory and both cores halt with
//     the golden output. A strike at or past the golden instruction
//     count is OutcomeBenign by the same argument the scalar kernel
//     makes. Neither case needs to emulate a single instruction once
//     the golden run is known.
//  2. An undetected flip leaves core A on the golden control-flow path
//     until the corruption steers a branch, jump or fetch differently.
//     Until that point every live lane executes the same instruction at
//     the same PC as the golden run, so one shared fetch+decode drives
//     the whole batch; a lane whose PC departs the cursor's retires to
//     a scalar finishing loop with the exact watchdog contract of the
//     scalar kernel.
//  3. An undetected CB flip lands in memory on the first store at or
//     after the strike, and until a load or atomic reads the flipped
//     byte the lane is the golden run plus that byte. The campaign's
//     golden Trace names that first read, so the lane forks from the
//     cursor just before it, the byte already flipped; a flip that
//     never lands, is overwritten by a store first, or is never read
//     classifies benign without emulation.

// BatchTrial describes one lane of a batched trial kernel, mirroring
// the per-trial arguments of RunUnSyncTrial / RunReunionTrial.
type BatchTrial struct {
	Step     uint64
	Flip     Flip
	Detected bool
	// Transient selects the in-flight (fingerprint-covered) injection
	// model; Reunion kernel only.
	Transient bool
}

// BatchResult is one lane's classification.
type BatchResult struct {
	Outcome Outcome
	// Err is a per-lane harness error (an invalid flip site). The
	// caller re-runs such lanes on the scalar path, which reproduces
	// the scalar retry contract exactly.
	Err error
	// Done reports that the lane was classified. Lanes interrupted by
	// context cancellation are left not-Done so a resumed campaign
	// re-runs them.
	Done bool
}

// BatchStats counts how a batch was executed, for throughput reporting:
// lanes classified statically against the golden run (Shortcut), lanes
// that completed inside the lockstep group (Lockstep), and lanes that
// retired to the scalar finishing path (Retired). The Reunion kernel
// counts the lanes its engine classifies as Lockstep and its hand-backs
// to RunReunionTrial as Retired (see batch_reunion.go).
type BatchStats struct {
	Lanes    uint64
	Shortcut uint64
	Lockstep uint64
	Retired  uint64
}

// add accumulates another batch's counters.
func (s *BatchStats) add(o BatchStats) {
	s.Lanes += o.Lanes
	s.Shortcut += o.Shortcut
	s.Lockstep += o.Lockstep
	s.Retired += o.Retired
}

// UnSyncTrialBatch classifies a batch of UnSync injection trials
// against one shared golden run, with outcomes identical to calling
// RunUnSyncTrial once per trial. TrialOpts carries the same budgets and
// context as the scalar kernel, and the golden Trace (recorded here
// when the caller supplies none); the context is polled at the same
// trialCtxQuantum, so cancellation latency is unchanged. On a
// batch-level error (golden failure or cancellation) the partial
// results are returned: lanes already classified stay Done.
func UnSyncTrialBatch(prog *asm.Program, trials []BatchTrial, opts TrialOpts) ([]BatchResult, BatchStats, error) {
	res := make([]BatchResult, len(trials))
	stats := BatchStats{Lanes: uint64(len(trials))}
	opts = opts.withDefaults()
	tr, err := opts.trace(prog)
	if err != nil {
		return res, stats, err
	}
	g := tr.Golden

	// Static classification: detected strikes recover, post-completion
	// strikes are benign (see the file comment), CB flips that are never
	// read are benign (see Trace), and invalid sites are handed back for
	// the scalar path to reject. Every other lane forks at its fork
	// step: the strike, or for a CB flip the first read of the flipped
	// byte, where cbAddr and cbMask land it.
	type lane struct {
		trial  int
		fork   uint64
		cbAddr uint64
		cbMask byte
	}
	work := make([]lane, 0, len(trials))
	for i, t := range trials {
		if err := t.Flip.Validate(); err != nil {
			res[i] = BatchResult{Err: err}
			continue
		}
		switch {
		case t.Step >= g.InstCount:
			res[i] = BatchResult{Outcome: OutcomeBenign, Done: true}
			stats.Shortcut++
		case t.Detected:
			res[i] = BatchResult{Outcome: OutcomeRecovered, Done: true}
			stats.Shortcut++
		case t.Flip.Space == SpaceCB:
			fork, addr, mask, read := tr.cbFork(t.Step, t.Flip.Bit, opts.StepBudget)
			if !read {
				res[i] = BatchResult{Outcome: OutcomeBenign, Done: true}
				stats.Shortcut++
				continue
			}
			work = append(work, lane{trial: i, fork: fork, cbAddr: addr, cbMask: mask})
		default:
			work = append(work, lane{trial: i, fork: t.Step})
		}
	}
	if len(work) == 0 {
		return res, stats, nil
	}
	// Lanes fork from the cursor in fork-step order; the stable sort
	// keeps equal fork steps in trial order for determinism.
	sort.SliceStable(work, func(a, b int) bool { return work[a].fork < work[b].fork })

	dec := emu.Decode(prog)
	nw := len(work)
	// Lane slot j executes work[j]; the extra lane is the cursor, which
	// replays the golden run and feeds the shared fetch.
	L := emu.NewLanes(dec, nw+1)
	cur := nw
	chk := interruptChecker{ctx: opts.Ctx}

	live := make([]int, 0, nw)
	retired := make([]int, 0, nw)
	next := 0

	// The cursor stops once every lane has forked and none is live.
	for step := uint64(0); step < g.InstCount && (next < nw || len(live) > 0); step++ {
		if err := chk.check(); err != nil {
			return res, stats, err
		}
		// Fork every lane whose fork step is this one: copy the
		// cursor's architectural state and land the flip. Register and
		// PC flips are branch-free column XORs; a CB flip lands on the
		// byte its next instruction reads.
		for next < nw && work[next].fork == step {
			slot := next
			L.Fork(slot, cur)
			w := work[next]
			f := trials[w.trial].Flip
			switch f.Space {
			case SpaceIntReg:
				L.XorReg(slot, f.Index, 1<<f.Bit)
			case SpaceFPReg:
				L.XorFReg(slot, f.Index, 1<<f.Bit)
			case SpacePC:
				L.XorPC(slot, 1<<(2+f.Bit))
			case SpaceMem:
				m := &L.Mem[slot]
				m.Write(f.Addr, m.Read(f.Addr, 8)^1<<f.Bit, 8)
			case SpaceCB:
				m := &L.Mem[slot]
				m.Write(w.cbAddr, m.Read(w.cbAddr, 1)^uint64(w.cbMask), 1)
			}
			live = append(live, slot)
			next++
		}

		pc := L.PC[cur]
		idx := int(pc / 4)

		// Step live lanes over the shared fetch. A lane whose PC left
		// the golden trace retires to the scalar finishing path; a lane
		// that halts on-trace classifies immediately.
		k := 0
		for _, slot := range live {
			if L.PC[slot] != pc {
				retired = append(retired, slot)
				continue
			}
			if _, err := L.StepShared(slot, idx); err != nil {
				// Unreachable on-trace (the cursor fetched this very
				// instruction), but mirror the scalar contract.
				res[work[slot].trial] = BatchResult{Outcome: OutcomeUnrecoverable, Done: true}
				continue
			}
			if L.Halted[slot] {
				res[work[slot].trial] = BatchResult{Outcome: classifyOutput(L.Output[slot], g.Output), Done: true}
				continue
			}
			live[k] = slot
			k++
		}
		live = live[:k]

		if _, err := L.StepShared(cur, idx); err != nil {
			return res, stats, fmt.Errorf("fault: batch cursor diverged from golden run: %w", err)
		}
	}

	// The cursor halted at the end of the golden trace. Live lanes that
	// did not halt with it (a corrupted SysExit operand, say) retire to
	// the scalar path.
	retired = append(retired, live...)

	stats.Retired = uint64(len(retired))
	stats.Lockstep = uint64(nw) - stats.Retired

	for _, slot := range retired {
		o, err := finishLane(L, slot, g, opts, &chk)
		if err != nil {
			return res, stats, err
		}
		res[work[slot].trial] = BatchResult{Outcome: o, Done: true}
	}
	return res, stats, nil
}

// finishLane runs a retired lane to completion under the scalar
// kernel's watchdog contract: at most StepBudget instructions beyond
// the golden count, a fetch fault is unrecoverable, a non-halting lane
// hangs, and a halted lane classifies by its output against the golden
// run.
func finishLane(L *emu.Lanes, slot int, g *emu.Machine, opts TrialOpts, chk *interruptChecker) (Outcome, error) {
	bound := g.InstCount + opts.StepBudget
	for !L.Halted[slot] && L.InstCount[slot] <= bound {
		if err := chk.check(); err != nil {
			return OutcomeBenign, err
		}
		if _, err := L.Step(slot); err != nil {
			return OutcomeUnrecoverable, nil
		}
	}
	if !L.Halted[slot] {
		return OutcomeHang, nil
	}
	return classifyOutput(L.Output[slot], g.Output), nil
}

// classifyOutput is the undetected-lane endgame of the scalar kernel:
// the partner core is clean by construction, so the trial is benign
// iff the faulted lane's output matches the golden output, else SDC.
func classifyOutput(out, golden []uint64) Outcome {
	if sameOutput(out, golden) {
		return OutcomeBenign
	}
	return OutcomeSDC
}
