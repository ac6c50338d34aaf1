package cmp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	unsync "github.com/cmlasu/unsync/internal/core"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/mem"
	"github.com/cmlasu/unsync/internal/pipeline"
	"github.com/cmlasu/unsync/internal/reunion"
	"github.com/cmlasu/unsync/internal/trace"
)

// The reference runners below are verbatim transcriptions of the
// scheme-specific run loops the Drive engine replaced. They exist only
// to pin engine equivalence: Drive must produce bit-identical Results.

func refRunBaseline(rc RunConfig, prof trace.Profile) (Result, error) {
	h := mem.NewHierarchy(baselineMemConfig(rc.Mem), 1)
	c := pipeline.NewCore(rc.Core, 0, h, rc.Stream(prof))
	for c.Stats.Insts < rc.WarmupInsts && !c.Done() {
		if c.Cycle() >= rc.MaxCycles {
			return Result{}, pipeline.ErrCycleBudget
		}
		c.Step()
	}
	c.ResetStats()
	h.ResetStats()
	if err := c.Run(rc.MaxCycles); err != nil {
		return Result{}, err
	}
	return Result{
		Scheme: Baseline, Benchmark: prof.Name,
		IPC: c.Stats.IPC(), Cycles: c.Stats.Cycles, Insts: c.Stats.Insts,
		Core: c.Stats, Events: collectEvents(c, h, nil),
	}, nil
}

func refMinInsts(a, b *pipeline.Core) uint64 {
	if a.Stats.Insts < b.Stats.Insts {
		return a.Stats.Insts
	}
	return b.Stats.Insts
}

func refRunUnSync(rc RunConfig, prof trace.Profile) (Result, error) {
	p := unsync.NewPair(rc.Core, rc.Mem, rc.UnSync, rc.Stream(prof), rc.Stream(prof))
	for refMinInsts(p.A, p.B) < rc.WarmupInsts && !p.Done() {
		if p.Cycle() >= rc.MaxCycles {
			return Result{}, pipeline.ErrCycleBudget
		}
		p.Step()
	}
	p.ResetStats()
	if err := p.Run(rc.MaxCycles); err != nil {
		return Result{}, err
	}
	st := p.Stats
	return Result{
		Scheme: UnSync, Benchmark: prof.Name,
		IPC: p.A.Stats.IPC(), Cycles: p.A.Stats.Cycles, Insts: p.A.Stats.Insts,
		Core: p.A.Stats, Events: collectEvents(p.A, p.Hier, p.Events()),
		UnSyncStats: &st,
	}, nil
}

func refRunReunion(rc RunConfig, prof trace.Profile) (Result, error) {
	p := reunion.NewPair(rc.Core, rc.Mem, rc.Reunion, rc.Stream(prof), rc.Stream(prof))
	for refMinInsts(p.A, p.B) < rc.WarmupInsts && !p.Done() {
		if p.Cycle() >= rc.MaxCycles {
			return Result{}, pipeline.ErrCycleBudget
		}
		p.Step()
	}
	p.ResetStats()
	if err := p.Run(rc.MaxCycles); err != nil {
		return Result{}, err
	}
	st := p.Stats
	return Result{
		Scheme: Reunion, Benchmark: prof.Name,
		IPC: p.A.Stats.IPC(), Cycles: p.A.Stats.Cycles, Insts: p.A.Stats.Insts,
		Core: p.A.Stats, Events: collectEvents(p.A, p.Hier, p.Events()),
		ReunionStats: &st,
	}, nil
}

// TestDriveMatchesReferenceRunners: for every scheme the engine
// replaced a hand-rolled loop for, the Drive result must be deeply
// equal to the reference loop's, across multiple workload profiles.
func TestDriveMatchesReferenceRunners(t *testing.T) {
	refs := map[Scheme]func(RunConfig, trace.Profile) (Result, error){
		Baseline: refRunBaseline,
		UnSync:   refRunUnSync,
		Reunion:  refRunReunion,
	}
	rc := smallRC()
	for _, bench := range []string{"gzip", "bzip2", "sha"} {
		prof, ok := trace.ByName(bench)
		if !ok {
			t.Fatalf("no %s profile", bench)
		}
		for s, ref := range refs { //unsync:allow-maprange order-independent comparisons
			want, err := ref(rc, prof)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", s, bench, err)
			}
			got, err := Run(s, rc, prof)
			if err != nil {
				t.Fatalf("%s/%s engine: %v", s, bench, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: engine diverged from reference:\nref:    %+v\nengine: %+v",
					s, bench, want, got)
			}
		}
	}
}

// refInjected is the unified-warmup injected reference loop: the
// committed clock is min across replicas both for warmup gating and
// for Poisson arrival sampling.
func refInjected(p interface {
	Step()
	Cycle() uint64
	Done() bool
	ResetStats()
	Committed() uint64
	Replicas() int
	InjectError(cycle uint64, core int)
}, rc RunConfig, rate float64, seed uint64) error {
	arr := fault.NewArrivals(fault.SER{PerInst: rate}, seed)
	var warmupBase uint64
	nextErr := arr.Next()
	step := func() {
		p.Step()
		for warmupBase+p.Committed() >= nextErr {
			p.InjectError(p.Cycle(), arr.Pick(p.Replicas()))
			nextErr += arr.Next()
		}
	}
	for p.Committed() < rc.WarmupInsts && !p.Done() {
		if p.Cycle() >= rc.MaxCycles {
			return pipeline.ErrCycleBudget
		}
		step()
	}
	warmupBase = p.Committed()
	p.ResetStats()
	for !p.Done() {
		if p.Cycle() >= rc.MaxCycles {
			return pipeline.ErrCycleBudget
		}
		step()
	}
	return nil
}

// TestDriveInjectedMatchesReference pins the injected path: the same
// Poisson seed through RunInjected and through the reference loop must
// strike the same instructions and land on the same IPC.
func TestDriveInjectedMatchesReference(t *testing.T) {
	const rate, seed = 1e-3, 0xfeed
	rc := smallRC()
	prof, _ := trace.ByName("gzip")
	plan := FaultPlan{SER: fault.SER{PerInst: rate}, Seed: seed}

	t.Run("unsync", func(t *testing.T) {
		p := unsync.NewPair(rc.Core, rc.Mem, rc.UnSync, rc.Stream(prof), rc.Stream(prof))
		if err := refInjected(p, rc, rate, seed); err != nil {
			t.Fatal(err)
		}
		got, err := RunInjected(UnSync, rc, prof, plan)
		if err != nil {
			t.Fatal(err)
		}
		if got.IPC != p.A.Stats.IPC() || got.Cycles != p.A.Stats.Cycles || got.Insts != p.A.Stats.Insts {
			t.Errorf("engine %+v diverged from reference IPC %.6f cycles %d insts %d",
				got, p.A.Stats.IPC(), p.A.Stats.Cycles, p.A.Stats.Insts)
		}
		if got.UnSyncStats.Recoveries == 0 {
			t.Error("no recoveries at 1e-3 errors/inst — injection not reaching the pair")
		}
	})
	t.Run("reunion", func(t *testing.T) {
		p := reunion.NewPair(rc.Core, rc.Mem, rc.Reunion, rc.Stream(prof), rc.Stream(prof))
		if err := refInjected(p, rc, rate, seed); err != nil {
			t.Fatal(err)
		}
		got, err := RunInjected(Reunion, rc, prof, plan)
		if err != nil {
			t.Fatal(err)
		}
		if got.IPC != p.A.Stats.IPC() || got.Cycles != p.A.Stats.Cycles || got.Insts != p.A.Stats.Insts {
			t.Errorf("engine %+v diverged from reference IPC %.6f cycles %d insts %d",
				got, p.A.Stats.IPC(), p.A.Stats.Cycles, p.A.Stats.Insts)
		}
		if got.ReunionStats.Rollbacks == 0 {
			t.Error("no rollbacks at 1e-3 errors/inst — injection not reaching the pair")
		}
	})
}

// fakeMachine has two replicas committing at different paces; it
// records the committed counts at ResetStats time so the test can pin
// WHICH clock gated warmup.
type fakeMachine struct {
	cycle      uint64
	fast, slow uint64
	resetAt    []uint64 // [fast, slow] at ResetStats
	injected   []uint64 // cycles of InjectError calls
}

func (f *fakeMachine) Step() {
	f.cycle++
	f.fast += 2 // the leading replica runs ahead...
	f.slow++    // ...the trailing one sets the committed clock
}
func (f *fakeMachine) Cycle() uint64     { return f.cycle }
func (f *fakeMachine) NextEvent() uint64 { return f.cycle }
func (f *fakeMachine) Skip(to uint64)    { f.cycle = max(f.cycle, to) }
func (f *fakeMachine) Done() bool        { return f.slow >= 400 }
func (f *fakeMachine) ResetStats()       { f.resetAt = []uint64{f.fast, f.slow} }
func (f *fakeMachine) Committed() uint64 {
	if f.slow < f.fast {
		return f.slow
	}
	return f.fast
}
func (f *fakeMachine) Collect(*Result) {}
func (f *fakeMachine) Replicas() int   { return 2 }
func (f *fakeMachine) InjectError(cycle uint64, core int) {
	f.injected = append(f.injected, cycle)
}

// TestDriveWarmupGatesOnMinReplica pins the engine's single warmup
// rule: statistics reset only once the SLOWEST replica has committed
// WarmupInsts, not when the leader has.
func TestDriveWarmupGatesOnMinReplica(t *testing.T) {
	m := &fakeMachine{}
	rc := RunConfig{WarmupInsts: 100, MaxCycles: 1 << 20}
	if err := Drive(m, rc, FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	if m.resetAt == nil {
		t.Fatal("ResetStats never called")
	}
	// If warmup gated on the fast replica, reset would land at
	// fast=100/slow=50; the min rule demands slow=100.
	if m.resetAt[1] != 100 {
		t.Errorf("reset at slow=%d, want 100 (min-replica warmup rule)", m.resetAt[1])
	}
	if m.resetAt[0] != 200 {
		t.Errorf("reset at fast=%d, want 200", m.resetAt[0])
	}
}

// TestDriveInjectionClockSpansReset pins that the Poisson arrival
// clock keeps counting across the statistics reset: with one expected
// error per 150 committed instructions and 400 total, strikes keep
// arriving in the measurement window.
func TestDriveInjectionClockSpansReset(t *testing.T) {
	m := &fakeMachine{}
	rc := RunConfig{WarmupInsts: 100, MaxCycles: 1 << 20}
	plan := FaultPlan{SER: fault.SER{PerInst: 1.0 / 150}, Seed: 7}
	if err := Drive(m, rc, plan); err != nil {
		t.Fatal(err)
	}
	if len(m.injected) == 0 {
		t.Fatal("no injections at 1/150 errors per instruction over 400 insts")
	}
	var post int
	resetCycle := uint64(100) // slow hits 100 at cycle 100
	for _, c := range m.injected {
		if c > resetCycle {
			post++
		}
	}
	if post == 0 {
		t.Error("no strikes after the stats reset — arrival clock restarted at warmup")
	}
}

// TestInjectionRequiresInjector: schemes without a recovery mechanism
// (the unprotected baseline) must reject injected runs loudly.
func TestInjectionRequiresInjector(t *testing.T) {
	prof, _ := trace.ByName("gzip")
	rc := smallRC()
	plan := FaultPlan{SER: fault.SER{PerInst: 1e-3}, Seed: 1}
	if _, err := RunInjected(Baseline, rc, prof, plan); err == nil {
		t.Error("baseline accepted an injected run")
	}
	// An inactive plan on the same scheme is fine.
	if _, err := RunInjected(Baseline, rc, prof, FaultPlan{}); err != nil {
		t.Errorf("error-free baseline run failed: %v", err)
	}
}

// TestSchemes pins the fixed scheme list: sorted, every name has a
// builder, and an unknown name fails listing the valid ones.
func TestSchemes(t *testing.T) {
	names := Schemes()
	if want := []Scheme{Baseline, Reunion, TMR, UnSync}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Schemes() = %v, want %v", names, want)
	}
	for _, s := range names {
		if _, ok := builderFor(s); !ok {
			t.Errorf("no builder for %s", s)
		}
	}
	_, err := Run("test-dmr", smallRC(), mustProfile(t, "sha"))
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	for _, s := range names {
		if !strings.Contains(err.Error(), string(s)) {
			t.Errorf("unknown-scheme error %q does not list %s", err, s)
		}
	}
}

func mustProfile(t *testing.T, name string) trace.Profile {
	t.Helper()
	p, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("no %s profile", name)
	}
	return p
}

// TestRunValidates pins that bad configs surface as errors, not panics.
func TestRunValidates(t *testing.T) {
	prof := mustProfile(t, "gzip")
	rc := smallRC()
	rc.MeasureInsts = 0
	if _, err := Run(UnSync, rc, prof); err == nil {
		t.Error("zero MeasureInsts accepted")
	}
	rc = smallRC()
	rc.MaxCycles = 10 // absurdly small budget
	_, err := Run(UnSync, rc, prof)
	if !errors.Is(err, pipeline.ErrCycleBudget) {
		t.Errorf("want ErrCycleBudget, got %v", err)
	}
}

// cancellingMachine is a Machine stub that cancels its own context from
// inside Step after a fixed cycle count and never finishes: the only
// way DriveContext can return is through its in-loop cancellation
// check, which makes the quantum-bounded abandon latency testable
// without any goroutine races.
type cancellingMachine struct {
	cycles   uint64
	cancelAt uint64
	cancel   context.CancelCauseFunc
	cause    error
}

func (m *cancellingMachine) Step() {
	m.cycles++
	if m.cycles == m.cancelAt {
		m.cancel(m.cause)
	}
}
func (m *cancellingMachine) Cycle() uint64     { return m.cycles }
func (m *cancellingMachine) NextEvent() uint64 { return m.cycles }
func (m *cancellingMachine) Skip(to uint64)    { m.cycles = max(m.cycles, to) }
func (m *cancellingMachine) Done() bool        { return false }
func (m *cancellingMachine) ResetStats()       {}
func (m *cancellingMachine) Committed() uint64 { return m.cycles }
func (m *cancellingMachine) Collect(*Result)   {}

// TestDriveContextCancelMidRun pins the engine's cancellation
// contract: once the context is cancelled mid-run, DriveContext stops
// within one step quantum and returns the cancellation cause.
func TestDriveContextCancelMidRun(t *testing.T) {
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	m := &cancellingMachine{cancelAt: 10_000, cancel: cancel, cause: cause}
	rc := RunConfig{MaxCycles: 1 << 30} // no warmup: straight into the measurement loop

	err := DriveContext(ctx, m, rc, FaultPlan{})
	if !errors.Is(err, cause) {
		t.Fatalf("DriveContext = %v, want the cancellation cause %v", err, cause)
	}
	if m.cycles < m.cancelAt {
		t.Fatalf("returned after %d cycles, before the cancel at %d", m.cycles, m.cancelAt)
	}
	if slack := m.cycles - m.cancelAt; slack > ctxQuantum {
		t.Errorf("ran %d cycles past the cancel, want at most one quantum (%d)", slack, ctxQuantum)
	}
}

// skippingMachine never finishes and is quiet for a million cycles
// after every step, so each engine iteration skips far ahead. It
// cancels its own context on a fixed step.
type skippingMachine struct {
	cycle, steps, cancelAt uint64
	cancel                 context.CancelCauseFunc
	cause                  error
}

func (m *skippingMachine) Step() {
	m.cycle++
	if m.steps++; m.steps == m.cancelAt {
		m.cancel(m.cause)
	}
}
func (m *skippingMachine) Cycle() uint64     { return m.cycle }
func (m *skippingMachine) NextEvent() uint64 { return m.cycle + 1_000_000 }
func (m *skippingMachine) Skip(to uint64)    { m.cycle = max(m.cycle, to) }
func (m *skippingMachine) Done() bool        { return false }
func (m *skippingMachine) ResetStats()       {}
func (m *skippingMachine) Committed() uint64 { return m.steps }
func (m *skippingMachine) Collect(*Result)   {}

// TestDriveContextCancelCountsIterations pins the quantum after
// skip-ahead: it counts engine iterations, not cycles. A machine that
// jumps a million cycles per iteration still returns the cancellation
// cause within one quantum of iterations of the cancel.
func TestDriveContextCancelCountsIterations(t *testing.T) {
	cause := errors.New("operator abort")
	ctx, cancel := context.WithCancelCause(context.Background())
	m := &skippingMachine{cancelAt: 10_000, cancel: cancel, cause: cause}
	rc := RunConfig{MaxCycles: ^uint64(0)}

	err := DriveContext(ctx, m, rc, FaultPlan{})
	if !errors.Is(err, cause) {
		t.Fatalf("DriveContext = %v, want the cancellation cause %v", err, cause)
	}
	if slack := m.steps - m.cancelAt; slack > ctxQuantum {
		t.Errorf("ran %d iterations past the cancel, want at most one quantum (%d)", slack, ctxQuantum)
	}
	if m.cycle < 1_000_000*m.cancelAt {
		t.Errorf("cycle %d after %d iterations: the engine did not skip ahead", m.cycle, m.steps)
	}
}

// TestRunContextPreCancelled: an already-cancelled context aborts the
// run before any machine is stepped, returning the cause.
func TestRunContextPreCancelled(t *testing.T) {
	cause := errors.New("never started")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	prof, _ := trace.ByName("gzip")
	if _, err := RunContext(ctx, UnSync, smallRC(), prof); !errors.Is(err, cause) {
		t.Fatalf("RunContext on cancelled ctx = %v, want %v", err, cause)
	}
	plan := FaultPlan{SER: fault.SER{PerInst: 1e-3}, Seed: 1}
	if _, err := RunInjectedContext(ctx, UnSync, smallRC(), prof, plan); !errors.Is(err, cause) {
		t.Fatalf("RunInjectedContext on cancelled ctx = %v, want %v", err, cause)
	}
}
