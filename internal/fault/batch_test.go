package fault_test

import (
	"errors"
	"testing"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/emu"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/isa"
	"github.com/cmlasu/unsync/internal/proggen"
)

// batchRNG is a private splitmix64 stream for site derivation.
type batchRNG struct{ s uint64 }

func (r *batchRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// randomFlip draws a random valid flip site over all five spaces.
func randomFlip(r *batchRNG, dataBase uint64) fault.Flip {
	switch fault.Space(r.next() % uint64(fault.NumSpaces)) {
	case fault.SpaceIntReg:
		return fault.Flip{Space: fault.SpaceIntReg, Index: uint8(1 + r.next()%uint64(isa.NumRegs-1)), Bit: uint8(r.next() % 64)}
	case fault.SpaceFPReg:
		return fault.Flip{Space: fault.SpaceFPReg, Index: uint8(r.next() % uint64(isa.NumRegs)), Bit: uint8(r.next() % 64)}
	case fault.SpacePC:
		return fault.Flip{Space: fault.SpacePC, Bit: uint8(r.next() % 6)}
	case fault.SpaceMem:
		return fault.Flip{Space: fault.SpaceMem, Addr: dataBase + (r.next()%56)&^7, Bit: uint8(r.next() % 64)}
	default:
		return fault.Flip{Space: fault.SpaceCB, Bit: uint8(r.next() % 64)}
	}
}

// TestUnSyncTrialBatchMatchesScalar fuzzes the batched UnSync kernel
// against the scalar reference: random programs, random strike steps
// (including past program completion), random sites over every space,
// detected and undetected, asserting the batch classifies every trial
// exactly as RunUnSyncTrial does.
func TestUnSyncTrialBatchMatchesScalar(t *testing.T) {
	r := &batchRNG{s: 0xb47c4}
	for seed := uint64(1); seed <= 30; seed++ {
		prog := proggen.Random(seed)
		g := emu.New(prog)
		if err := g.Run(1_000_000); err != nil {
			t.Fatalf("seed %d: golden: %v", seed, err)
		}
		opts := fault.TrialOpts{Golden: g}

		trials := make([]fault.BatchTrial, 24)
		for i := range trials {
			trials[i] = fault.BatchTrial{
				// +8 so some strikes land past program completion and
				// exercise the benign shortcut.
				Step:     r.next() % (g.InstCount + 8),
				Flip:     randomFlip(r, prog.DataBase),
				Detected: r.next()%2 == 0,
			}
		}
		res, stats, err := fault.UnSyncTrialBatch(prog, trials, opts)
		if err != nil {
			t.Fatalf("seed %d: batch: %v", seed, err)
		}
		if stats.Lanes != uint64(len(trials)) {
			t.Fatalf("seed %d: stats.Lanes = %d, want %d", seed, stats.Lanes, len(trials))
		}
		for i, tr := range trials {
			want, werr := fault.RunUnSyncTrial(prog, tr.Step, tr.Flip, tr.Detected, opts)
			if werr != nil {
				t.Fatalf("seed %d trial %d: scalar: %v", seed, i, werr)
			}
			if !res[i].Done || res[i].Err != nil {
				t.Fatalf("seed %d trial %d: batch lane not classified: %+v", seed, i, res[i])
			}
			if res[i].Outcome != want {
				t.Fatalf("seed %d trial %d (%+v): batch %v, scalar %v", seed, i, tr, res[i].Outcome, want)
			}
		}
	}
}

// TestUnSyncTrialBatchOfOne pins the scalar escape hatch: a batch of
// width one classifies like the scalar kernel too.
func TestUnSyncTrialBatchOfOne(t *testing.T) {
	r := &batchRNG{s: 0x0f1}
	prog := proggen.Random(3)
	g := emu.New(prog)
	if err := g.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	opts := fault.TrialOpts{Golden: g}
	for i := 0; i < 40; i++ {
		tr := fault.BatchTrial{Step: r.next() % (g.InstCount + 2), Flip: randomFlip(r, prog.DataBase), Detected: r.next()%3 == 0}
		res, _, err := fault.UnSyncTrialBatch(prog, []fault.BatchTrial{tr}, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fault.RunUnSyncTrial(prog, tr.Step, tr.Flip, tr.Detected, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Outcome != want {
			t.Fatalf("trial %d (%+v): batch %v, scalar %v", i, tr, res[0].Outcome, want)
		}
	}
}

// TestUnSyncTrialBatchInvalidSite pins the per-lane error contract: an
// invalid flip site yields a not-Done lane carrying the validation
// error, without disturbing its neighbors.
func TestUnSyncTrialBatchInvalidSite(t *testing.T) {
	prog := proggen.Random(5)
	g := emu.New(prog)
	if err := g.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	trials := []fault.BatchTrial{
		{Step: 1, Flip: fault.Flip{Space: fault.SpaceIntReg, Index: 0, Bit: 3}}, // r0: invalid
		{Step: 1, Flip: fault.Flip{Space: fault.SpaceIntReg, Index: 4, Bit: 3}},
	}
	res, _, err := fault.UnSyncTrialBatch(prog, trials, fault.TrialOpts{Golden: g})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Done || !errors.Is(res[0].Err, fault.ErrInvalidFlip) {
		t.Fatalf("invalid lane: %+v", res[0])
	}
	if !res[1].Done || res[1].Err != nil {
		t.Fatalf("valid lane: %+v", res[1])
	}
}

// TestReunionTrialBatchMatchesScalar fuzzes the batched Reunion kernel
// against the scalar reference over transient and persistent strikes.
func TestReunionTrialBatchMatchesScalar(t *testing.T) {
	r := &batchRNG{s: 0x4e0210}
	for seed := uint64(1); seed <= 12; seed++ {
		prog := proggen.Random(seed)
		g := emu.New(prog)
		if err := g.Run(1_000_000); err != nil {
			t.Fatalf("seed %d: golden: %v", seed, err)
		}
		opts := fault.TrialOpts{Golden: g}
		const fi = 16

		trials := make([]fault.BatchTrial, 12)
		for i := range trials {
			trials[i] = fault.BatchTrial{
				Step:      r.next() % (g.InstCount + 8),
				Flip:      randomFlip(r, prog.DataBase),
				Transient: r.next()%2 == 0,
			}
		}
		res, stats, err := fault.ReunionTrialBatch(prog, trials, fi, opts)
		if err != nil {
			t.Fatalf("seed %d: batch: %v", seed, err)
		}
		if stats.Shortcut+stats.Lockstep+stats.Retired != stats.Lanes {
			t.Fatalf("seed %d: stats do not sum: %+v", seed, stats)
		}
		for i, tr := range trials {
			want, werr := fault.RunReunionTrial(prog, tr.Step, tr.Flip, tr.Transient, fi, opts)
			if werr != nil {
				t.Fatalf("seed %d trial %d: scalar: %v", seed, i, werr)
			}
			if !res[i].Done || res[i].Outcome != want {
				t.Fatalf("seed %d trial %d (%+v): batch %+v, scalar %v", seed, i, tr, res[i], want)
			}
		}
	}
}

// FuzzReunionBatchMatchesScalar requires the Reunion lane engine to
// classify every trial exactly as RunReunionTrial does, over random
// programs: sites in every space, transient and persistent strikes,
// strikes past completion, FI from 1 to 30 plus one wider than the
// program, and watchdog budgets below, at and above the golden
// instruction count.
func FuzzReunionBatchMatchesScalar(f *testing.F) {
	for seed := uint64(0); seed < 12; seed++ {
		f.Add(seed, seed*0x9e3779b9, uint8(seed*3), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, progSeed, siteSeed uint64, fiSel, budgetSel uint8) {
		prog := proggen.Random(progSeed)
		g := emu.New(prog)
		if err := g.Run(1_000_000); err != nil || !g.Halted {
			t.Fatalf("golden: halted=%v err=%v", g.Halted, err)
		}
		n := g.InstCount
		fi := 1 + int(fiSel)%31
		if fi == 31 {
			fi = int(n) + 7 // one window wider than the program
		}
		var budget uint64 // 0: the 4×MaxSteps default
		switch budgetSel % 4 {
		case 1:
			budget = n / 2
		case 2:
			budget = n
		case 3:
			budget = n + uint64(fi)
		}
		opts := fault.TrialOpts{Golden: g, StepBudget: budget}

		r := &batchRNG{s: siteSeed}
		trials := make([]fault.BatchTrial, 16)
		for i := range trials {
			trials[i] = fault.BatchTrial{
				Step:      r.next() % (n + 8),
				Flip:      randomFlip(r, prog.DataBase),
				Transient: r.next()%2 == 0,
			}
		}
		res, stats, err := fault.ReunionTrialBatch(prog, trials, fi, opts)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		if stats.Shortcut+stats.Lockstep+stats.Retired != stats.Lanes || stats.Lanes != uint64(len(trials)) {
			t.Fatalf("stats do not sum: %+v", stats)
		}
		for i, tr := range trials {
			want, werr := fault.RunReunionTrial(prog, tr.Step, tr.Flip, tr.Transient, fi, opts)
			if werr != nil {
				t.Fatalf("trial %d: scalar: %v", i, werr)
			}
			if !res[i].Done || res[i].Outcome != want {
				t.Fatalf("trial %d (%+v, fi %d, budget %d, golden %d): batch %+v, scalar %v",
					i, tr, fi, budget, n, res[i], want)
			}
		}
	})
}

// reunionCase runs one trial through both Reunion kernels, requires
// them to agree on want, and returns the batch's stats.
func reunionCase(t *testing.T, src string, tr fault.BatchTrial, fi int, budget uint64, want fault.Outcome) fault.BatchStats {
	t.Helper()
	prog := asm.MustAssemble(src)
	opts := fault.TrialOpts{StepBudget: budget}
	scalar, err := fault.RunReunionTrial(prog, tr.Step, tr.Flip, tr.Transient, fi, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := fault.ReunionTrialBatch(prog, []fault.BatchTrial{tr}, fi, opts)
	if err != nil {
		t.Fatal(err)
	}
	if scalar != want || res[0].Outcome != want || !res[0].Done {
		t.Fatalf("scalar %v, batch %+v, want %v", scalar, res[0], want)
	}
	return stats
}

// TestReunionBatchReconvergenceHang reaches the reconvergence
// shortcut's watchdog branch: a transient strike rolls back to a clean
// checkpoint, but the golden remainder (86 instructions) overruns a
// 50-step budget, so the trial hangs rather than recovers.
func TestReunionBatchReconvergenceHang(t *testing.T) {
	const src = `
	li r1, 0
	li r3, 40
loop:
	addi r1, r1, 1
	blt r1, r3, loop
	mv r4, r1
	li r2, 1
	syscall
	halt
`
	tr := fault.BatchTrial{Step: 10, Flip: fault.Flip{Space: fault.SpaceIntReg, Index: 1, Bit: 5}, Transient: true}
	reunionCase(t, src, tr, 4, 50, fault.OutcomeHang)
	// With the budget above the golden length the same strike recovers.
	reunionCase(t, src, tr, 4, 0, fault.OutcomeRecovered)
}

// TestReunionBatchRollbackLimit exhausts maxRollbacks: a persistent
// flip in a register that every window stores re-mismatches after each
// rollback until the trial is declared unrecoverable.
func TestReunionBatchRollbackLimit(t *testing.T) {
	const src = `
	la r10, buf
	li r5, 7
	li r1, 0
	li r3, 40
loop:
	sd r5, 0(r10)
	addi r1, r1, 1
	blt r1, r3, loop
	ld r4, 0(r10)
	li r2, 1
	syscall
	halt
.data
buf: .space 8
`
	tr := fault.BatchTrial{Step: 6, Flip: fault.Flip{Space: fault.SpaceIntReg, Index: 5, Bit: 3}}
	reunionCase(t, src, tr, 5, 0, fault.OutcomeUnrecoverable)
}

// TestReunionBatchHandsBackHaltedCheckpoint pins the hand-back: a
// persistent flip of the syscall selector makes core A skip the exit
// that halts core B, with matching fingerprints at that boundary. The
// scalar kernel would checkpoint with one core halted, so the lane
// retires to it.
func TestReunionBatchHandsBackHaltedCheckpoint(t *testing.T) {
	const src = `
	li r4, 5
	li r2, 1
	syscall
	li r2, 10
	syscall
`
	tr := fault.BatchTrial{Step: 3, Flip: fault.Flip{Space: fault.SpaceIntReg, Index: 2, Bit: 0}}
	stats := reunionCase(t, src, tr, 5, 0, fault.OutcomeUnrecoverable)
	if stats.Retired != 1 {
		t.Fatalf("stats = %+v, want the lane retired to the scalar kernel", stats)
	}
}
