package fault_test

import (
	"errors"
	"testing"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/emu"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/isa"
	"github.com/cmlasu/unsync/internal/proggen"
	"github.com/cmlasu/unsync/internal/progs"
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

// FuzzUnSyncBatchMatchesScalar requires the UnSync batch kernel to
// classify every trial exactly as RunUnSyncTrial does, on every library
// program and on random programs, with undetected CB flips dominating
// the sites (the lanes the golden trace forks at the first read of the
// flipped byte or classifies without emulation). Step budgets of 1 to 8
// are shorter than many strikes' distance to their next store, so the
// edge where the flip lands only if its store commits within the
// budget is crossed from both sides. fib-recursive's golden run is
// 79,429 steps, so it runs fewer trials against the slow scalar
// reference rather than being skipped.
func FuzzUnSyncBatchMatchesScalar(f *testing.F) {
	type libProg struct {
		name string
		prog *asm.Program
		tr   *fault.Trace
	}
	var lib []libProg
	for _, p := range progs.All() {
		prog, err := p.Assemble()
		if err != nil {
			f.Fatal(err)
		}
		tr, err := fault.RecordTrace(prog, 1_000_000)
		if err != nil {
			f.Fatal(err)
		}
		lib = append(lib, libProg{p.Name, prog, tr})
	}
	for sel := uint8(0); sel < 8; sel++ {
		f.Add(sel, uint64(sel)*7, uint64(sel)*0x9e3779b9, sel/2)
	}
	f.Fuzz(func(t *testing.T, progSel uint8, progSeed, siteSeed uint64, budgetSel uint8) {
		var prog *asm.Program
		var opts fault.TrialOpts
		trials := make([]fault.BatchTrial, 16)
		if i := int(progSel % 8); i < len(lib) {
			// A library program, with the campaign's recorded trace.
			prog = lib[i].prog
			opts = fault.TrialOpts{Golden: lib[i].tr.Golden, Trace: lib[i].tr}
			if lib[i].name == "fib-recursive" {
				trials = trials[:3]
			}
		} else {
			// A random program; the kernel records its own trace.
			prog = proggen.Random(progSeed)
			g := emu.New(prog)
			if err := g.Run(1_000_000); err != nil || !g.Halted {
				t.Fatalf("golden: halted=%v err=%v", g.Halted, err)
			}
			opts = fault.TrialOpts{Golden: g}
		}
		n := opts.Golden.InstCount
		r := &batchRNG{s: siteSeed}
		switch budgetSel % 4 {
		case 1:
			opts.StepBudget = 1 + r.next()%8
		case 2:
			opts.StepBudget = n/2 + 1
		case 3:
			opts.StepBudget = n
		}
		for i := range trials {
			tr := fault.BatchTrial{Step: r.next() % (n + 4)}
			if r.next()%4 != 0 {
				tr.Flip = fault.Flip{Space: fault.SpaceCB, Bit: uint8(r.next() % 64)}
			} else {
				tr.Flip = randomFlip(r, prog.DataBase)
				tr.Detected = r.next()%2 == 0
			}
			trials[i] = tr
		}
		res, stats, err := fault.UnSyncTrialBatch(prog, trials, opts)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		if stats.Shortcut+stats.Lockstep+stats.Retired != stats.Lanes || stats.Lanes != uint64(len(trials)) {
			t.Fatalf("stats do not sum: %+v", stats)
		}
		for i, tr := range trials {
			want, werr := fault.RunUnSyncTrial(prog, tr.Step, tr.Flip, tr.Detected, opts)
			if werr != nil {
				t.Fatalf("trial %d: scalar: %v", i, werr)
			}
			if !res[i].Done || res[i].Outcome != want {
				t.Fatalf("trial %d (%+v, budget %d, golden %d): batch %+v, scalar %v",
					i, tr, opts.StepBudget, n, res[i], want)
			}
		}
	})
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

// TestReunionBatchRegisterLiveness pins the golden trace's register
// liveness on the Reunion lane engine: a persistent register flip that
// is overwritten or never read classifies without emulation
// (Shortcut), and one that is read forks — at the boundary before the
// read when that lies after the strike — and classifies as the scalar
// kernel does. r5 and r6 are read at step 8, a window boundary for FI
// 4 and 8; r6 is then overwritten at step 10; SYSCALL at step 12 reads
// r2, r4 and f12 whichever service runs.
func TestReunionBatchRegisterLiveness(t *testing.T) {
	const src = `
	li r5, 7
	li r6, 1
	nop
	nop
	nop
	nop
	nop
	nop
	add r4, r5, r6
	nop
	li r6, 2
	li r2, 1
	syscall
	halt
`
	reg := func(space fault.Space, index uint8, step uint64) fault.BatchTrial {
		return fault.BatchTrial{Step: step, Flip: fault.Flip{Space: space, Index: index, Bit: 3}}
	}
	cases := []struct {
		name     string
		tr       fault.BatchTrial
		fi       int
		budget   uint64
		want     fault.Outcome
		shortcut bool
	}{
		{"read across a boundary", reg(fault.SpaceIntReg, 5, 1), 4, 0, fault.OutcomeUnrecoverable, false},
		{"read at the boundary", reg(fault.SpaceIntReg, 5, 1), 8, 0, fault.OutcomeUnrecoverable, false},
		// The rollback to step 0 lands the flip before "li r5, 7"
		// re-executes, which overwrites it.
		{"read in the strike's window", reg(fault.SpaceIntReg, 5, 1), 16, 0, fault.OutcomeRecovered, false},
		{"overwritten across a boundary", reg(fault.SpaceIntReg, 6, 8), 4, 0, fault.OutcomeBenign, true},
		{"overwritten in the strike's window", reg(fault.SpaceIntReg, 6, 9), 16, 0, fault.OutcomeBenign, true},
		{"never read", reg(fault.SpaceIntReg, 7, 2), 4, 0, fault.OutcomeBenign, true},
		{"never read, over budget", reg(fault.SpaceIntReg, 7, 2), 4, 5, fault.OutcomeHang, true},
		{"read by a syscall that ignores it", reg(fault.SpaceFPReg, 12, 1), 4, 0, fault.OutcomeBenign, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stats := reunionCase(t, src, c.tr, c.fi, c.budget, c.want)
			if got := stats.Shortcut == 1; got != c.shortcut {
				t.Fatalf("stats %+v: shortcut %v, want %v", stats, got, c.shortcut)
			}
		})
	}

	// A lane forked late carries the flip in its checkpoints: r5 is
	// read at step 8 without changing a commit, the window ending at
	// step 12 verifies, and the printed copy of r5 then mismatches. The
	// rollback to step 12 must keep the flip (it persists in its cell),
	// not land it a second time.
	const twice = `
	li r5, 7
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	add r8, r5, r0
	nop
	nop
	nop
	mv r4, r5
	li r2, 1
	syscall
	halt
`
	reunionCase(t, twice, reg(fault.SpaceIntReg, 5, 1), 4, 0, fault.OutcomeUnrecoverable)
}

// TestUnSyncBatchCBBudgetEdge pins where an undetected CB flip lands:
// on the first store at or after the strike, only if that store
// commits within StepBudget steps of it. The store is d steps after
// the strike, so a budget of d misses it (benign) and d+1 lands the
// flip on the stored word, which is loaded and printed (SDC).
func TestUnSyncBatchCBBudgetEdge(t *testing.T) {
	prog := asm.MustAssemble(`
	la r10, buf
	li r4, 5
	nop
	nop
	sw r4, 0(r10)
	lw r4, 0(r10)
	li r2, 1
	syscall
	halt
.data
buf: .space 8
`)
	store := -1
	for i, in := range prog.Insts {
		if in.Class() == isa.ClassStore {
			store = i
			break
		}
	}
	const strike = 1
	d := uint64(store - strike)
	tr := fault.BatchTrial{Step: strike, Flip: fault.Flip{Space: fault.SpaceCB, Bit: 2}}
	for _, c := range []struct {
		budget uint64
		want   fault.Outcome
	}{{d, fault.OutcomeBenign}, {d + 1, fault.OutcomeSDC}} {
		budget, want := c.budget, c.want
		opts := fault.TrialOpts{StepBudget: budget}
		scalar, err := fault.RunUnSyncTrial(prog, tr.Step, tr.Flip, false, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := fault.UnSyncTrialBatch(prog, []fault.BatchTrial{tr}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if scalar != want || res[0].Outcome != want || !res[0].Done {
			t.Fatalf("budget %d (store %d steps after the strike): scalar %v, batch %+v, want %v",
				budget, d, scalar, res[0], want)
		}
	}
}

// TestRecordTraceMatchesGolden pins that recording the trace runs the
// same golden run as Golden, under the same step budget and error
// contract.
func TestRecordTraceMatchesGolden(t *testing.T) {
	for _, p := range progs.All() {
		prog, err := p.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		g, err := fault.Golden(prog, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := fault.RecordTrace(prog, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Golden.InstCount != g.InstCount || !emu.SameOutput(tr.Golden, g) ||
			!emu.SameArchState(tr.Golden, g) || tr.Golden.OnCommit != nil {
			t.Fatalf("%s: trace golden differs from Golden", p.Name)
		}
		_, gerr := fault.Golden(prog, g.InstCount-1)
		_, terr := fault.RecordTrace(prog, g.InstCount-1)
		if !errors.Is(terr, fault.ErrGoldenFailed) || terr.Error() != gerr.Error() {
			t.Fatalf("%s: short budget: RecordTrace %v, Golden %v", p.Name, terr, gerr)
		}
	}
}
