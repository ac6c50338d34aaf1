package fault

import (
	"fmt"
	"sort"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/emu"
	"github.com/cmlasu/unsync/internal/isa"
	"github.com/cmlasu/unsync/internal/reunion/crc"
)

// The Reunion lane engine classifies every trial exactly as
// RunReunionTrial would, without replaying the golden prefix or cloning
// memory. It rests on four facts of the scalar kernel:
//
//  1. Fork point. Before the flip lands both cores run the golden
//     execution, every window's fingerprints match and nothing rolls
//     back, so at boundary ⌊step/FI⌋·FI the pair is in golden state with
//     a clean checkpoint (injected == false) — for persistent strikes,
//     and for transients, which land on the first register-writing (or
//     store) instruction at or after step. A lane forks from the golden
//     cursor there, with empty fingerprints and no rollbacks.
//  2. Golden core B. Core B is never faulted and rollback only rewinds
//     it to a checkpoint of its own run, so after `steps` committed
//     positions B is the golden run at `steps`: its commits come from
//     the golden commit log (zero commits once it has halted, which
//     still fold into the CRC), it is halted iff steps ≥ the golden
//     instruction count, and its output is the golden output. B is
//     never emulated.
//  3. Undo-log checkpoints. Core A runs on the cursor's own lane slot,
//     over the shared initial image. A checkpoint is A's ArchState, its
//     output length and a mark in the slot overlay's undo journal
//     (emu.Overlay.Mark/Rewind), which holds only the bytes each Write
//     overwrote: a rollback stores them back, newest first, to the mark
//     instead of restoring a memory clone, and a finished lane rewinds
//     the slot to the cursor. Lines a trial touched first stay in the
//     slot's line table with their image contents, so the steady state
//     allocates nothing.
//  4. Reconvergence. A transient strike that rolls back to a clean
//     checkpoint lands on golden state, so the rest of the run is
//     golden: Recovered, or Hang when the golden run itself is longer
//     than the watchdog budget.
//
// One behaviour is not modelled. The scalar rollback un-halts both
// cores even when its checkpoint was taken with exactly one of them
// halted (reachable through a fingerprint match between a halted and a
// running core), after which the un-halted core runs past its exit. A
// lane about to take such a checkpoint is handed back to
// RunReunionTrial from scratch.

// goldenCommit is the part of a golden commit that Reunion's
// fingerprint folds.
type goldenCommit struct{ pc, data uint64 }

// ReunionTrialBatch classifies a batch of Reunion injection trials
// against one shared golden run, with outcomes identical to calling
// RunReunionTrial once per trial. Strikes at or past program
// completion classify statically (Shortcut): the injection condition
// can never fire, so the pair runs golden — benign, or a hang when the
// golden run outlasts the watchdog budget. Every other lane forks from
// the golden cursor and runs the engine described above (counted as
// Lockstep), unless it is handed back to the scalar kernel (Retired).
// Errors and cancellation follow UnSyncTrialBatch.
func ReunionTrialBatch(prog *asm.Program, trials []BatchTrial, fi int, opts TrialOpts) ([]BatchResult, BatchStats, error) {
	res := make([]BatchResult, len(trials))
	stats := BatchStats{Lanes: uint64(len(trials))}
	if fi < 1 {
		fi = 10
	}
	opts = opts.withDefaults()
	g, err := opts.golden(prog)
	if err != nil {
		return res, stats, err
	}
	opts.Golden = g

	work := make([]int, 0, len(trials))
	for i, t := range trials {
		// Mirror the scalar kernel's validation order: transient
		// non-CB strikes ignore the site fields and skip validation.
		if !t.Transient || t.Flip.Space == SpaceCB {
			if err := t.Flip.Validate(); err != nil {
				res[i] = BatchResult{Err: err}
				continue
			}
		}
		if t.Step >= g.InstCount {
			res[i] = BatchResult{Outcome: goldenRemainder(OutcomeBenign, g.InstCount, opts.StepBudget), Done: true}
			stats.Shortcut++
			continue
		}
		work = append(work, i)
	}
	if len(work) == 0 {
		return res, stats, nil
	}
	sort.SliceStable(work, func(a, b int) bool {
		return trials[work[a]].Step < trials[work[b]].Step
	})

	// The golden commit log core B replays, recorded by one pass of a
	// scalar machine.
	dec := emu.Decode(prog)
	gm := dec.NewMachine()
	log := make([]goldenCommit, g.InstCount)
	for s := range log {
		c, err := gm.Step()
		if err != nil {
			return res, stats, fmt.Errorf("fault: golden replay diverged: %w", err)
		}
		log[s] = goldenCommit{c.PC, c.Data}
	}

	// A golden cursor sweeps the program once. At each lane's boundary,
	// in strike order, the lane runs on the cursor's own slot, which is
	// then rewound to the cursor: no lane copies the prefix's memory.
	e := reunionEngine{
		L: emu.NewLanes(dec, 1), log: log, golden: g,
		fi: uint64(fi), budget: opts.StepBudget, chk: &interruptChecker{ctx: opts.Ctx},
	}
	next := 0
	for step := uint64(0); ; step++ {
		for ; next < len(work) && trials[work[next]].Step/e.fi*e.fi == step; next++ {
			i := work[next]
			t := trials[i]
			o, ok, err := e.run(step, t)
			if err != nil {
				return res, stats, err
			}
			if ok {
				stats.Lockstep++
			} else {
				if o, err = RunReunionTrial(prog, t.Step, t.Flip, t.Transient, fi, opts); err != nil {
					return res, stats, err
				}
				stats.Retired++
			}
			res[i] = BatchResult{Outcome: o, Done: true}
		}
		if next == len(work) {
			return res, stats, nil
		}
		if err := e.chk.check(); err != nil {
			return res, stats, err
		}
		if _, err := e.L.Step(0); err != nil {
			return res, stats, fmt.Errorf("fault: batch cursor diverged from golden run: %w", err)
		}
	}
}

// reunionEngine is the lane engine's per-batch state: the cursor slot
// the lanes run on, and the golden run core B replays.
type reunionEngine struct {
	L      *emu.Lanes
	log    []goldenCommit
	golden *emu.Machine
	fi     uint64
	budget uint64
	chk    *interruptChecker
}

// reunionCheckpoint is core A's state at a verified window boundary;
// mem is the slot overlay's undo-journal mark.
type reunionCheckpoint struct {
	arch     emu.ArchState
	out      int
	mem      int
	steps    uint64
	injected bool
}

// checkpoint captures the slot at position steps.
func (e *reunionEngine) checkpoint(steps uint64, injected bool) reunionCheckpoint {
	return reunionCheckpoint{
		arch: e.L.Snapshot(0), out: len(e.L.Output[0]), mem: e.L.Mem[0].Mark(),
		steps: steps, injected: injected,
	}
}

// restore rolls the slot back to cp, un-halting it as the scalar
// rollback does.
func (e *reunionEngine) restore(cp reunionCheckpoint) {
	L := e.L
	L.Restore(0, cp.arch)
	L.Mem[0].Rewind(cp.mem)
	L.Output[0] = L.Output[0][:cp.out]
	L.Halted[0] = false
}

// run executes trial t on the cursor's slot, forked at boundary (the
// cursor's position), and rewinds the slot to the cursor afterwards.
// ok is false when the lane must be handed back to the scalar kernel.
func (e *reunionEngine) run(boundary uint64, t BatchTrial) (o Outcome, ok bool, err error) {
	fork := e.checkpoint(boundary, false)
	inst := e.L.InstCount[0]
	o, ok, err = e.trial(t, fork)
	e.restore(fork)
	e.L.InstCount[0] = inst
	e.L.Mem[0].Release()
	return o, ok, err
}

// trial mirrors RunReunionTrial's loop statement for statement from
// the clean checkpoint cp, with core A on the slot and core B read
// from the golden log.
func (e *reunionEngine) trial(t BatchTrial, cp reunionCheckpoint) (Outcome, bool, error) {
	L := e.L
	mem := &L.Mem[0]
	n := e.golden.InstCount
	steps := cp.steps
	var crcA, crcB uint16
	var windowCount uint64
	var rollbacks int
	injected := false
	for (!L.Halted[0] || steps < n) && steps < e.budget {
		if err := e.chk.check(); err != nil {
			return OutcomeBenign, true, err
		}
		ca, err := L.Step(0)
		if err != nil {
			return OutcomeUnrecoverable, true, nil
		}
		var cb goldenCommit
		if steps < n {
			cb = e.log[steps]
		}
		steps++

		if t.Transient && !injected && steps >= t.Step+1 {
			if t.Flip.Space == SpaceCB {
				if ca.Inst.Class() == isa.ClassStore {
					w := ca.Inst.Op.MemWidth()
					bit := uint64(t.Flip.Bit) % uint64(8*w)
					mem.Write(ca.Addr, mem.Read(ca.Addr, w)^1<<bit, w)
					ca.Data ^= 1 << bit
					injected = true
				}
			} else if d := ca.Inst.DestReg(); d >= 0 {
				mask := uint64(1) << (t.Flip.Bit % 64)
				if d < isa.NumRegs {
					L.Regs[d][0] ^= mask
				} else {
					L.FRegs[d-isa.NumRegs][0] ^= mask
				}
				ca.Data ^= mask
				injected = true
			}
		}
		if !t.Transient && !injected && steps == t.Step+1 {
			applyLane(L, t.Flip)
			injected = true
		}

		crcA = crc.Update64(crc.Update64(crcA, ca.PC), ca.Data)
		crcB = crc.Update64(crc.Update64(crcB, cb.pc), cb.data)
		windowCount++

		haltedB := steps >= n
		if windowCount < e.fi && (!L.Halted[0] || !haltedB) {
			continue
		}
		if crcA == crcB {
			if L.Halted[0] != haltedB {
				// A checkpoint with exactly one core halted: the
				// scalar rollback would un-halt that core.
				return OutcomeBenign, false, nil
			}
			cp = e.checkpoint(steps, injected)
		} else {
			rollbacks++
			if rollbacks > maxRollbacks {
				return OutcomeUnrecoverable, true, nil
			}
			if t.Transient && !cp.injected {
				// Back on golden state with the transient spent.
				return goldenRemainder(OutcomeRecovered, n, e.budget), true, nil
			}
			e.restore(cp)
			steps = cp.steps
			if !t.Transient && !cp.injected {
				applyLane(L, t.Flip)
			}
			injected = true
		}
		crcA, crcB = 0, 0
		windowCount = 0
	}

	if !L.Halted[0] || steps < n {
		return OutcomeHang, true, nil
	}
	// B halted with the golden output, so the outcome turns on A's.
	switch {
	case !sameOutput(L.Output[0], e.golden.Output):
		return OutcomeSDC, true, nil
	case rollbacks > 0:
		return OutcomeRecovered, true, nil
	default:
		return OutcomeBenign, true, nil
	}
}

// goldenRemainder classifies a pair whose remaining run is the golden
// one: it ends as o, unless the golden run (n instructions) outlasts
// the watchdog budget, which stops the scalar loop first.
func goldenRemainder(o Outcome, n, budget uint64) Outcome {
	if n > budget {
		return OutcomeHang
	}
	return o
}

// applyLane lands a persistent flip on the slot, mirroring Flip.Apply;
// a memory flip goes through the overlay so the undo journal covers it.
func applyLane(L *emu.Lanes, f Flip) {
	switch f.Space {
	case SpaceIntReg:
		if f.Index != 0 && f.Index < isa.NumRegs && f.Bit < 64 {
			L.Regs[f.Index][0] ^= 1 << f.Bit
		}
	case SpaceFPReg:
		if f.Index < isa.NumRegs && f.Bit < 64 {
			L.FRegs[f.Index][0] ^= 1 << f.Bit
		}
	case SpacePC:
		if f.Bit < 6 {
			L.PC[0] ^= 1 << (2 + f.Bit)
		}
	case SpaceMem:
		if f.Bit < 64 {
			m := &L.Mem[0]
			m.Write(f.Addr, m.Read(f.Addr, 8)^1<<f.Bit, 8)
		}
	case SpaceCB:
		// No storage of its own (see Flip.Apply).
	}
}
