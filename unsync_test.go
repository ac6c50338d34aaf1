package unsync

import (
	"strings"
	"testing"
)

func quickRC() RunConfig {
	rc := DefaultRunConfig()
	rc.WarmupInsts = 10_000
	rc.MeasureInsts = 30_000
	return rc
}

func TestPublicRun(t *testing.T) {
	rc := quickRC()
	base, err := Run(SchemeBaseline, rc, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	us, err := Run(SchemeUnSync, rc, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	re, err := Run(SchemeReunion, rc, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if base.IPC <= 0 || us.IPC <= 0 || re.IPC <= 0 {
		t.Fatalf("non-positive IPCs: %v %v %v", base.IPC, us.IPC, re.IPC)
	}
	if Overhead(base, re) <= Overhead(base, us) {
		t.Errorf("headline property violated: reunion %.1f%% <= unsync %.1f%%",
			Overhead(base, re), Overhead(base, us))
	}
	if _, err := Run(SchemeBaseline, rc, "bogus"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestPublicRunProfile(t *testing.T) {
	p, ok := BenchmarkByName("sha")
	if !ok {
		t.Fatal("sha missing")
	}
	res, err := RunProfile(SchemeBaseline, quickRC(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "sha" {
		t.Errorf("benchmark label = %q", res.Benchmark)
	}
}

func TestPublicBenchmarks(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 28 {
		t.Errorf("benchmarks = %d, want 28", len(bs))
	}
	if _, ok := BenchmarkByName("nope"); ok {
		t.Error("BenchmarkByName found a nonexistent profile")
	}
}

func TestPublicPairs(t *testing.T) {
	rc := quickRC()
	up, err := NewUnSyncPair(rc, "qsort", 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := up.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if up.IPC() <= 0 {
		t.Error("UnSync pair IPC <= 0")
	}
	rp, err := NewReunionPair(rc, "qsort", 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if rp.Stats.Fingerprints == 0 {
		t.Error("Reunion pair produced no fingerprints")
	}
	if _, err := NewUnSyncPair(rc, "bogus", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := NewReunionPair(rc, "bogus", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestPublicTables(t *testing.T) {
	if !strings.Contains(TableI().Text(), "Issue Queue") {
		t.Error("Table I incomplete")
	}
	res, tab := TableII()
	if res.AreaSavingPP < 12 || res.AreaSavingPP > 15 {
		t.Errorf("area saving = %.2f pp", res.AreaSavingPP)
	}
	if tab == nil {
		t.Error("nil Table II render")
	}
	rows, tab3 := TableIII()
	if len(rows) != 3 || tab3 == nil {
		t.Error("Table III incomplete")
	}
}

func TestPublicFaultSurface(t *testing.T) {
	prog, err := Assemble(`
		li r1, 7
		li r2, 1
		mul r4, r1, r1
		syscall
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(m.Output) != 1 || m.Output[0] != 49 {
		t.Errorf("output = %v", m.Output)
	}
	o, err := UnSyncFaultTrial(prog, 2, Flip{Space: SpaceIntReg, Index: 1, Bit: 3}, true, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if o != OutcomeRecovered && o != OutcomeBenign {
		t.Errorf("outcome = %v", o)
	}
	if len(UnSyncCoverage()) == 0 || len(ReunionCoverage()) == 0 {
		t.Error("coverage maps empty")
	}
	if BreakEvenSER(1.2, 5000, 1.0, 40) <= 0 {
		t.Error("no break-even")
	}
}

func TestPublicOptions(t *testing.T) {
	if len(DefaultOptions().Benchmarks) != 28 {
		t.Error("default options incomplete")
	}
	q := QuickOptions()
	if len(q.Benchmarks) == 0 {
		t.Error("quick options empty")
	}
	if len(FI5Points()) == 0 || len(ManyCoreCatalog()) != 3 {
		t.Error("aux surfaces wrong")
	}
	if HardwareTableII(HardwareParams()).Basic.TotalAreaUM2 <= 0 {
		t.Error("hardware model surface broken")
	}
}

func TestPublicTMR(t *testing.T) {
	rc := quickRC()
	tr, err := NewTMRTriple(rc, DefaultTMRConfig(), "qsort", 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if tr.IPC() <= 0 || tr.Stats.Drained == 0 {
		t.Error("TMR triple did not run")
	}
	if _, err := NewTMRTriple(rc, DefaultTMRConfig(), "bogus", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestPublicChips(t *testing.T) {
	rc := quickRC()
	w, err := BenchmarkStream("qsort", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewMixedChip(SchemeUnSync, rc, []StreamFactory{w}, []StreamFactory{w})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if ch.PairIPC(0) <= 0 || ch.SoloIPC(0) <= 0 {
		t.Error("mixed chip IPCs wrong")
	}
	if _, err := BenchmarkStream("bogus", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := NewChip(SchemeUnSync, rc, []StreamFactory{w}); err != nil {
		t.Error(err)
	}
}

func TestPublicExperimentWrappers(t *testing.T) {
	o := QuickOptions()
	o.Benchmarks = o.Benchmarks[:2]
	o.RC.WarmupInsts = 5_000
	o.RC.MeasureInsts = 15_000

	if _, err := Fig4(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig5(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig6(o); err != nil {
		t.Fatal(err)
	}
	if _, err := SERSweep(o); err != nil {
		t.Fatal(err)
	}
	if _, err := ROEC(4); err != nil {
		t.Fatal(err)
	}
	if rows, err := AblationWritePolicy(o); err != nil || len(rows) != 2 {
		t.Fatalf("write-policy ablation: %v", err)
	} else if RenderWritePolicy(rows) == nil {
		t.Fatal("nil render")
	}
	if rows, err := AblationForwarding(o); err != nil || len(rows) != 2 {
		t.Fatalf("forwarding ablation: %v", err)
	} else if RenderForwarding(rows) == nil {
		t.Fatal("nil render")
	}
	if RenderDetection(AblationDetection()) == nil {
		t.Fatal("nil detection render")
	}
	if rows, err := ChipInterference(o, [][2]string{{"sha", "qsort"}}, 10_000); err != nil {
		t.Fatal(err)
	} else if RenderInterference(rows) == nil {
		t.Fatal("nil render")
	}
	if res, err := RedundancyStudy(o, "qsort", []float64{0}); err != nil {
		t.Fatal(err)
	} else if res.Render() == nil {
		t.Fatal("nil render")
	}
	if rows, err := AVFEstimate(o); err != nil {
		t.Fatal(err)
	} else if RenderAVF(rows) == nil {
		t.Fatal("nil render")
	}
	if rows, err := ReplicatedFig4(o, 2); err != nil {
		t.Fatal(err)
	} else if RenderReplicated(rows) == nil {
		t.Fatal("nil render")
	}
	for _, scheme := range []string{"reunion", "unsync"} {
		res, err := RunCampaign(mustProg(t), CampaignConfig{Scheme: scheme, Trials: 3, Seed: 5, MaxSteps: 100_000,
			Spaces: []Space{SpaceIntReg, SpaceFPReg, SpacePC}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tally.Trials != 3 {
			t.Fatalf("%s campaign tallied %d trials, want 3", scheme, res.Tally.Trials)
		}
	}
	if o, err := ReunionFaultTrial(mustProg(t), 10, Flip{Bit: 3}, true, 10, 100_000); err != nil || o == OutcomeSDC {
		t.Fatalf("trial: %v %v", o, err)
	}
}

func mustProg(t *testing.T) *Program {
	t.Helper()
	p, err := Assemble(`
		li r1, 0
		li r2, 0
		li r3, 40
	loop:
		add r1, r1, r2
		slli r4, r1, 3
		xor r1, r1, r4
		addi r2, r2, 1
		blt r2, r3, loop
		mv r4, r1
		li r2, 1
		syscall
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
