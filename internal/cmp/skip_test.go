package cmp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/pipeline"
	"github.com/cmlasu/unsync/internal/trace"
)

// refDriveStepping is Drive without skip-ahead, kept as the
// differential reference: the same warmup rule, injection clock and
// MaxCycles check, stepping every cycle.
func refDriveStepping(m Machine, rc RunConfig, plan FaultPlan) error {
	var (
		inj        Injector
		arr        *fault.Arrivals
		nextErr    uint64
		warmupBase uint64
	)
	if plan.active() {
		var ok bool
		if inj, ok = m.(Injector); !ok {
			return fmt.Errorf("cmp: %T does not support fault injection", m)
		}
		arr = fault.NewArrivals(plan.SER, plan.Seed)
		nextErr = arr.Next()
	}
	step := func() {
		m.Step()
		if arr == nil {
			return
		}
		for warmupBase+m.Committed() >= nextErr {
			inj.InjectError(m.Cycle(), arr.Pick(inj.Replicas()))
			nextErr += arr.Next()
		}
	}
	for m.Committed() < rc.WarmupInsts && !m.Done() {
		if m.Cycle() >= rc.MaxCycles {
			return pipeline.ErrCycleBudget
		}
		step()
	}
	warmupBase = m.Committed()
	m.ResetStats()
	for !m.Done() {
		if m.Cycle() >= rc.MaxCycles {
			return pipeline.ErrCycleBudget
		}
		step()
	}
	return nil
}

// skipCase is one differential run: a scheme, a configuration, a
// profile and a fault plan.
type skipCase struct {
	scheme Scheme
	rc     RunConfig
	prof   trace.Profile
	plan   FaultPlan
}

func (sc skipCase) String() string {
	return fmt.Sprintf("%s/%s core=%+v unsync=%+v reunion=%+v tmr=%+v dram=%d bus=%d warmup=%d measure=%d max=%d plan=%+v",
		sc.scheme, sc.prof.Name, sc.rc.Core, sc.rc.UnSync, sc.rc.Reunion, sc.rc.TMR,
		sc.rc.Mem.DRAMLatency, sc.rc.Mem.BusBeat, sc.rc.WarmupInsts, sc.rc.MeasureInsts, sc.rc.MaxCycles, sc.plan)
}

// skipRand is the test's deterministic generator (splitmix64).
type skipRand uint64

func (s *skipRand) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// upto returns a value in [lo, hi].
func (s *skipRand) upto(lo, hi uint64) uint64 { return lo + s.next()%(hi-lo+1) }

// decodeSkipCase derives a case from fuzz input. seed picks the
// scheme, whether a fault plan is active (never on the baseline, which
// has no injector) and the profile; geom 0 keeps the Table I machine,
// otherwise it randomizes the core, memory and scheme parameters and
// sometimes sets a cycle budget the run cannot meet.
func decodeSkipCase(seed, geom uint64) skipCase {
	schemes := []Scheme{Baseline, UnSync, Reunion, TMR}
	benches := trace.Benchmarks()
	sc := skipCase{
		scheme: schemes[seed%4],
		rc:     DefaultRunConfig(),
		prof:   benches[(seed/8)%uint64(len(benches))].Reseeded(seed),
	}
	r := skipRand(seed ^ geom)
	rc := &sc.rc
	rc.WarmupInsts = r.upto(0, 2_000)
	rc.MeasureInsts = r.upto(500, 4_000)
	if sc.scheme != Baseline && (seed/4)%2 == 1 {
		sc.plan = FaultPlan{SER: fault.SER{PerInst: []float64{5e-4, 2e-3}[r.next()%2]}, Seed: r.next()}
	}
	if geom == 0 {
		return sc
	}
	r = skipRand(geom)
	cfg := &rc.Core
	cfg.Width = int(r.upto(1, 4))
	cfg.ROBSize = int(r.upto(uint64(cfg.Width), 128))
	cfg.IQSize = int(r.upto(1, 64))
	cfg.LSQSize = int(r.upto(1, 64))
	cfg.FetchQueue = int(r.upto(uint64(cfg.Width), 16))
	cfg.BypassDelay = r.upto(0, 12)
	rc.Mem.DRAMLatency = r.upto(20, 600)
	rc.Mem.BusBeat = r.upto(1, 4)
	rc.UnSync.CBEntries = int(r.upto(1, 16))
	rc.UnSync.DrainPerCycle = int(r.upto(1, 3))
	rc.Reunion.FI = int(r.upto(1, 30))
	rc.Reunion.CompareLatency = r.upto(1, 40)
	rc.Reunion.CSBEntries = int(r.upto(0, 40))
	rc.TMR.CBEntries = int(r.upto(1, 16))
	if r.next()%4 == 0 {
		rc.MaxCycles = r.upto(1_000, 40_000)
	}
	return sc
}

// runBoth drives two fresh machines of the case, one through Drive and
// one through the stepping reference, and collects both.
func (sc skipCase) runBoth(t *testing.T) (got, want Result, gotErr, wantErr error) {
	t.Helper()
	if err := validateRun(&sc.rc, &sc.prof); err != nil {
		t.Fatalf("%v: invalid case: %v", sc, err)
	}
	build, ok := builderFor(sc.scheme)
	if !ok {
		t.Fatalf("no %s builder", sc.scheme)
	}
	run := func(drive func(Machine, RunConfig, FaultPlan) error) (Result, error) {
		m, err := build(sc.rc, sc.prof)
		if err != nil {
			t.Fatalf("%v: build: %v", sc, err)
		}
		err = drive(m, sc.rc, sc.plan)
		res := Result{Scheme: sc.scheme, Benchmark: sc.prof.Name}
		m.Collect(&res)
		return res, err
	}
	got, gotErr = run(Drive)
	want, wantErr = run(refDriveStepping)
	return got, want, gotErr, wantErr
}

// FuzzDriveSkipMatchesStepping pins skip-ahead to stepping every
// cycle: Drive and the stepping reference must return the same error
// and deeply equal Results, Events included, on every scheme, with and
// without a fault plan, over random core geometries, bypass delays,
// Communication Buffer and CHECK Stage Buffer sizes, fingerprint
// intervals and latencies, DRAM latencies, bus beats and cycle
// budgets. The seed corpus covers every scheme × plan combination on
// the Table I machine and on random configurations.
func FuzzDriveSkipMatchesStepping(f *testing.F) {
	for i := uint64(0); i < 16; i++ {
		seed := i*8 + i%8 // every scheme × plan bit, spread over profiles
		f.Add(seed, uint64(0))
		f.Add(seed, i*0x9e3779b97f4a7c15+1)
		f.Add(seed, i*0xbf58476d1ce4e5b9+3)
	}
	f.Fuzz(func(t *testing.T, seed, geom uint64) {
		sc := decodeSkipCase(seed, geom)
		got, want, gotErr, wantErr := sc.runBoth(t)
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("%v: Drive error %v, stepping reference %v", sc, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: skip-ahead diverged from stepping:\n got %+v\nwant %+v", sc, got, want)
		}
	})
}

// skipCounter wraps a Machine and counts the cycles Skip jumps over.
type skipCounter struct {
	Machine
	skipped uint64
}

func (s *skipCounter) Skip(to uint64) {
	s.skipped += to - s.Cycle()
	s.Machine.Skip(to)
}

// TestDriveSkipsQuietCycles checks that skip-ahead engages where it
// should: on the memory-bound mcf profile most cycles of every scheme
// wait on DRAM, and Drive must jump over the bulk of them.
func TestDriveSkipsQuietCycles(t *testing.T) {
	rc := DefaultRunConfig()
	rc.WarmupInsts, rc.MeasureInsts = 2_000, 8_000
	prof := mustProfile(t, "mcf")
	for _, s := range []Scheme{Baseline, UnSync, Reunion, TMR} {
		build, _ := builderFor(s)
		m, err := build(rc, prof)
		if err != nil {
			t.Fatal(err)
		}
		sc := &skipCounter{Machine: m}
		if err := DriveContext(context.Background(), sc, rc, FaultPlan{}); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if frac := float64(sc.skipped) / float64(sc.Cycle()); frac < 0.5 {
			t.Errorf("%s/mcf: skipped %.2f of %d cycles, want most of them", s, frac, sc.Cycle())
		}
	}
}
