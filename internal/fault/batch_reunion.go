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
//     cursor there, with empty fingerprints and no rollbacks. A
//     persistent register flip changes no commit until an instruction
//     reads the register, so the fingerprints keep matching up to that
//     read: when the golden Trace puts the first read in a later window
//     than the strike, the pair is at that window's boundary in golden
//     state plus the flip, with a checkpoint taken after the strike
//     (injected == true), and the lane forks there. A flip overwritten
//     before it is read, or never read, leaves the run golden.
//  2. Golden core B. Core B is never faulted and rollback only rewinds
//     it to a checkpoint of its own run, so after `steps` committed
//     positions B is the golden run at `steps`: its commits come from
//     the golden Trace (zero commits once it has halted, which
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

// ReunionTrialBatch classifies a batch of Reunion injection trials
// against one shared golden run, with outcomes identical to calling
// RunReunionTrial once per trial. Strikes at or past program
// completion, and persistent register flips that are never read,
// classify statically (Shortcut): the pair runs golden — benign, or a
// hang when the golden run outlasts the watchdog budget. Every other
// lane forks from the golden cursor and runs the engine described
// above (counted as Lockstep), unless it is handed back to the scalar
// kernel (Retired).
// Errors and cancellation follow UnSyncTrialBatch.
func ReunionTrialBatch(prog *asm.Program, trials []BatchTrial, fi int, opts TrialOpts) ([]BatchResult, BatchStats, error) {
	res := make([]BatchResult, len(trials))
	stats := BatchStats{Lanes: uint64(len(trials))}
	if fi < 1 {
		fi = 10
	}
	opts = opts.withDefaults()
	tr, err := opts.trace(prog)
	if err != nil {
		return res, stats, err
	}
	g := tr.Golden
	opts.Golden = g
	n := g.InstCount

	// Each lane forks at a window boundary (fact 1), or — for a
	// persistent register flip whose first read lies in a later window —
	// at the last boundary before that read, already injected.
	type lane struct {
		trial    int
		fork     uint64
		injected bool
	}
	work := make([]lane, 0, len(trials))
	for i, t := range trials {
		// Mirror the scalar kernel's validation order: transient
		// non-CB strikes ignore the site fields and skip validation.
		if !t.Transient || t.Flip.Space == SpaceCB {
			if err := t.Flip.Validate(); err != nil {
				res[i] = BatchResult{Err: err}
				continue
			}
		}
		if t.Step >= n {
			res[i] = BatchResult{Outcome: goldenRemainder(OutcomeBenign, n, opts.StepBudget), Done: true}
			stats.Shortcut++
			continue
		}
		l := lane{trial: i, fork: t.Step / uint64(fi) * uint64(fi)}
		if r, ok := persistentReg(t); ok {
			// The flip lands once step t.Step has committed.
			read, ok := tr.firstRead(r, t.Step+1)
			if !ok {
				// Never read: the pair runs golden to the end.
				res[i] = BatchResult{Outcome: goldenRemainder(OutcomeBenign, n, opts.StepBudget), Done: true}
				stats.Shortcut++
				continue
			}
			if b := read / uint64(fi) * uint64(fi); b > t.Step {
				l = lane{trial: i, fork: b, injected: true}
			}
		}
		work = append(work, l)
	}
	if len(work) == 0 {
		return res, stats, nil
	}
	sort.SliceStable(work, func(a, b int) bool { return work[a].fork < work[b].fork })

	// A golden cursor sweeps the program once. At each lane's boundary,
	// in fork order, the lane runs on the cursor's own slot, which is
	// then rewound to the cursor: no lane copies the prefix's memory.
	e := reunionEngine{
		L: emu.NewLanes(emu.Decode(prog), 1), log: tr.commits, golden: g,
		fi: uint64(fi), budget: opts.StepBudget, chk: &interruptChecker{ctx: opts.Ctx},
	}
	next := 0
	for step := uint64(0); ; step++ {
		for ; next < len(work) && work[next].fork == step; next++ {
			w := work[next]
			t := trials[w.trial]
			o, ok, err := e.run(step, t, w.injected)
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
			res[w.trial] = BatchResult{Outcome: o, Done: true}
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

// persistentReg returns the flat register (isa.DepReg numbering) a
// persistent register flip strikes.
func persistentReg(t BatchTrial) (int, bool) {
	if t.Transient {
		return 0, false
	}
	switch t.Flip.Space {
	case SpaceIntReg:
		return isa.DepReg(isa.RegInt, t.Flip.Index), true
	case SpaceFPReg:
		return isa.DepReg(isa.RegFP, t.Flip.Index), true
	}
	return 0, false
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
// cursor's position) — with t's persistent flip already landed when
// injected — and rewinds the slot to the cursor afterwards. ok is
// false when the lane must be handed back to the scalar kernel.
func (e *reunionEngine) run(boundary uint64, t BatchTrial, injected bool) (o Outcome, ok bool, err error) {
	fork := e.checkpoint(boundary, false)
	inst := e.L.InstCount[0]
	cp := fork
	if injected {
		applyLane(e.L, t.Flip)
		cp = e.checkpoint(boundary, true)
	}
	o, ok, err = e.trial(t, cp)
	e.restore(fork)
	e.L.InstCount[0] = inst
	e.L.Mem[0].Release()
	return o, ok, err
}

// trial mirrors RunReunionTrial's loop statement for statement from
// the verified checkpoint cp, with core A on the slot and core B read
// from the golden log.
func (e *reunionEngine) trial(t BatchTrial, cp reunionCheckpoint) (Outcome, bool, error) {
	L := e.L
	mem := &L.Mem[0]
	n := e.golden.InstCount
	steps := cp.steps
	var crcA, crcB uint16
	var windowCount uint64
	var rollbacks int
	injected := cp.injected
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
