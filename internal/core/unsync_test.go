package core

import (
	"testing"

	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/isa"
	"github.com/cmlasu/unsync/internal/mem"
	"github.com/cmlasu/unsync/internal/pipeline"
	"github.com/cmlasu/unsync/internal/trace"
)

// storeHeavy builds a stream with the given store fraction.
func storeHeavy(n int, storeEvery int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		if i%storeEvery == 0 {
			recs[i] = trace.Record{Class: isa.ClassStore, Dst: -1, Src1: -1, Src2: -1,
				Addr: uint64(0x100000 + (i%512)*8)}
		} else {
			recs[i] = trace.Record{Class: isa.ClassIntALU, Dst: int8(1 + i%40), Src1: -1, Src2: -1}
		}
		recs[i].Seq = uint64(i)
		recs[i].PC = 0x4000 + uint64(i%64)*4
	}
	return recs
}

func newPair(t *testing.T, recs []trace.Record, cfg Config) *Pair {
	t.Helper()
	a := make([]trace.Record, len(recs))
	b := make([]trace.Record, len(recs))
	copy(a, recs)
	copy(b, recs)
	return NewPair(pipeline.DefaultConfig(), mem.DefaultConfig(), cfg,
		trace.NewSliceStream(a), trace.NewSliceStream(b))
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.CBEntries = 0 },
		func(c *Config) { c.CBEntryBytes = 0 },
		func(c *Config) { c.DrainPerCycle = 0 },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Error("invalid config accepted")
		}
	}
	if DefaultConfig().CBBytes() != 2040 {
		t.Errorf("default CBBytes = %d, want 2040 (170 x 12B)", DefaultConfig().CBBytes())
	}
}

func TestPairRunsToCompletion(t *testing.T) {
	recs := storeHeavy(5_000, 8)
	p := newPair(t, recs, DefaultConfig())
	if err := p.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if p.A.Stats.Insts != 5_000 || p.B.Stats.Insts != 5_000 {
		t.Errorf("insts = %d/%d", p.A.Stats.Insts, p.B.Stats.Insts)
	}
	wantStores := uint64(5_000 / 8)
	if 5000%8 != 0 {
		wantStores++
	}
	if p.Stats.Drained != wantStores {
		t.Errorf("Drained = %d, want %d", p.Stats.Drained, wantStores)
	}
	if p.Stats.Divergences != 0 {
		t.Errorf("Divergences = %d in an error-free run", p.Stats.Divergences)
	}
	if p.CBLen(0) != 0 || p.CBLen(1) != 0 {
		t.Error("CBs not drained at completion")
	}
}

func TestExactlyOneCopyReachesL2(t *testing.T) {
	recs := storeHeavy(2_000, 4)
	p := newPair(t, recs, DefaultConfig())
	if err := p.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	// Every drained entry makes exactly one L2 write; the cores' own L1
	// write-through stores must NOT hit the L2 directly.
	var l2Writes uint64 = p.Hier.Bus.Transfers()
	if l2Writes < p.Stats.Drained {
		t.Errorf("bus transfers %d < drained %d", l2Writes, p.Stats.Drained)
	}
}

func TestSmallCBStallsLargeCBDoesNot(t *testing.T) {
	// Bursts of 16 back-to-back stores (2/cycle at commit) outpace the
	// 1-entry/cycle CB drain; a large CB absorbs the burst, a tiny one
	// back-pressures commit (Fig 6's mechanism).
	recs := make([]trace.Record, 20_000)
	for i := range recs {
		if i%64 < 16 {
			recs[i] = trace.Record{Class: isa.ClassStore, Dst: -1, Src1: -1, Src2: -1,
				Addr: uint64(0x100000 + (i%512)*8)}
		} else {
			recs[i] = trace.Record{Class: isa.ClassIntALU, Dst: int8(1 + i%40), Src1: -1, Src2: -1}
		}
		recs[i].Seq = uint64(i)
		recs[i].PC = 0x4000 + uint64(i%64)*4
	}
	small := DefaultConfig()
	small.CBEntries = 2
	large := DefaultConfig()
	large.CBEntries = 256

	ps := newPair(t, recs, small)
	pl := newPair(t, recs, large)
	if err := ps.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if ps.Stats.CBFullStall[0]+ps.Stats.CBFullStall[1] == 0 {
		t.Error("tiny CB never filled on a store-heavy stream")
	}
	if ps.IPC() >= pl.IPC() {
		t.Errorf("small-CB IPC %.3f not below large-CB IPC %.3f (Fig 6 property)",
			ps.IPC(), pl.IPC())
	}
	if pl.Stats.CBFullStall[0] > ps.Stats.CBFullStall[0] {
		t.Error("larger CB should stall no more than the small one")
	}
}

func TestMembarWaitsForCBDrain(t *testing.T) {
	recs := []trace.Record{
		{Class: isa.ClassStore, Dst: -1, Src1: -1, Src2: -1, Addr: 0x100000},
		{Class: isa.ClassMembar, Dst: -1, Src1: -1, Src2: -1},
		{Class: isa.ClassIntALU, Dst: 1, Src1: -1, Src2: -1},
	}
	for i := range recs {
		recs[i].Seq = uint64(i)
		recs[i].PC = 0x4000 + uint64(i)*4
	}
	p := newPair(t, recs, DefaultConfig())
	if err := p.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	// The barrier can only commit after the store drained from the CB.
	if p.Stats.Drained != 1 {
		t.Errorf("Drained = %d", p.Stats.Drained)
	}
}

func TestRecoveryFreezesBothCores(t *testing.T) {
	recs := storeHeavy(20_000, 8)
	p := newPair(t, recs, DefaultConfig())
	p.ScheduleRecovery(100, 1)
	if err := p.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Stats.Recoveries != 1 {
		t.Fatalf("Recoveries = %d", p.Stats.Recoveries)
	}
	if p.Stats.RecoveryCycles == 0 {
		t.Fatal("RecoveryCycles = 0")
	}
	if p.A.Stats.FrozenCycles != p.Stats.RecoveryCycles ||
		p.B.Stats.FrozenCycles != p.Stats.RecoveryCycles {
		t.Errorf("frozen cycles A=%d B=%d, want %d on both",
			p.A.Stats.FrozenCycles, p.B.Stats.FrozenCycles, p.Stats.RecoveryCycles)
	}
	// Recovery invalidates the erroneous core's L1.
	if got := p.Stats.Recoveries; got != 1 {
		t.Errorf("Recoveries = %d", got)
	}
	// The run still completes correctly — always forward execution.
	if p.A.Stats.Insts != 20_000 || p.B.Stats.Insts != 20_000 {
		t.Error("recovery lost instructions")
	}
}

func TestRecoveriesSlowThePair(t *testing.T) {
	recs := storeHeavy(20_000, 8)
	clean := newPair(t, recs, DefaultConfig())
	faulty := newPair(t, recs, DefaultConfig())
	for cyc := uint64(500); cyc <= 5_000; cyc += 500 {
		faulty.ScheduleRecovery(cyc, int(cyc/500)%2)
	}
	if err := clean.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if err := faulty.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if faulty.Cycle() <= clean.Cycle() {
		t.Errorf("faulty run (%d cycles) not slower than clean (%d)",
			faulty.Cycle(), clean.Cycle())
	}
	if faulty.Stats.Recoveries != 10 {
		t.Errorf("Recoveries = %d, want 10", faulty.Stats.Recoveries)
	}
}

func TestRecoveryCostGrowsWithL1Contents(t *testing.T) {
	// Loads populate the write-through L1; the L1-copy term of the
	// recovery cost must grow with the resident lines.
	recs := make([]trace.Record, 10_000)
	for i := range recs {
		recs[i] = trace.Record{Class: isa.ClassLoad, Dst: int8(1 + i%40), Src1: -1, Src2: -1,
			Addr: uint64(0x100000 + (i%2048)*64), Seq: uint64(i), PC: 0x4000 + uint64(i%64)*4}
	}
	p := newPair(t, recs, DefaultConfig())
	cold := p.RecoveryCost()
	for i := 0; i < 20_000; i++ {
		p.Step()
	}
	warm := p.RecoveryCost()
	if warm <= cold {
		t.Errorf("recovery cost did not grow with L1 contents: cold=%d warm=%d", cold, warm)
	}
}

func TestScheduleRecoveryPanicsOnBadCore(t *testing.T) {
	p := newPair(t, storeHeavy(10, 2), DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.ScheduleRecovery(0, 2)
}

func TestPairDeterminism(t *testing.T) {
	prof, _ := trace.ByName("bzip2")
	run := func() uint64 {
		p := NewPair(pipeline.DefaultConfig(), mem.DefaultConfig(), DefaultConfig(),
			trace.NewLimit(trace.NewGenerator(prof), 20_000),
			trace.NewLimit(trace.NewGenerator(prof), 20_000))
		if err := p.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		return p.Cycle()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic pair: %d vs %d cycles", a, b)
	}
}

func TestResetStats(t *testing.T) {
	p := newPair(t, storeHeavy(5_000, 4), DefaultConfig())
	for i := 0; i < 1000; i++ {
		p.Step()
	}
	p.ResetStats()
	if p.Stats.Drained != 0 || p.A.Stats.Insts != 0 {
		t.Error("ResetStats incomplete")
	}
	if err := p.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if p.A.Stats.Insts == 0 {
		t.Error("no instructions after reset")
	}
}

func TestMemConfigForcesWriteThroughParity(t *testing.T) {
	cfg := MemConfig(mem.DefaultConfig())
	if cfg.L1D.Policy != mem.WriteThrough {
		t.Error("UnSync L1 must be write-through (§III-C1)")
	}
	if cfg.L1D.Protect != mem.ProtParity || cfg.L2.Protect != mem.ProtSECDED {
		t.Error("UnSync protection wiring wrong")
	}
	// Write-back input must be overridden.
	in := mem.DefaultConfig()
	in.L1D.Policy = mem.WriteBack
	if MemConfig(in).L1D.Policy != mem.WriteThrough {
		t.Error("MemConfig did not override the L1 policy")
	}
}

// skewedPair returns a pair of the named workload with core B ahead
// of core A. The pair first runs until A has committed 2,000
// instructions: from a cold start, DRAM misses stall both cores for
// longer than any freeze window, so no skew could form. Then A alone is
// frozen for 400 cycles while the pair runs 300.
func skewedPair(t *testing.T, workload string) *Pair {
	t.Helper()
	prof, ok := trace.ByName(workload)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	p := NewPair(pipeline.DefaultConfig(), mem.DefaultConfig(), DefaultConfig(),
		trace.NewLimit(trace.NewGenerator(prof), 30_000),
		trace.NewLimit(trace.NewGenerator(prof), 30_000))
	for p.A.Position() < 2000 {
		p.Step()
	}
	p.A.FreezeUntil(p.Cycle() + 400)
	for i := 0; i < 300; i++ {
		p.Step()
	}
	if p.B.Position() <= p.A.Position() {
		t.Fatalf("cores did not skew: A at %d, B at %d", p.A.Position(), p.B.Position())
	}
	return p
}

// TestRecoveryRealignsSkewedCores reproduces the livelock fixed in
// recovery: core B runs several stores ahead of core A when the error
// strikes on B; recovery must resume B from A's position so the CB
// pairing stays aligned and the run completes.
func TestRecoveryRealignsSkewedCores(t *testing.T) {
	p := skewedPair(t, "bzip2")
	p.ScheduleRecovery(p.Cycle()+1, 1) // error on the ahead core
	if err := p.Run(100_000_000); err != nil {
		t.Fatalf("run after skewed recovery: %v", err)
	}
	if p.Stats.Recoveries != 1 {
		t.Fatalf("recoveries = %d", p.Stats.Recoveries)
	}
	if p.CBLen(0) != 0 || p.CBLen(1) != 0 {
		t.Error("CBs not drained after recovery — pairing misaligned")
	}
}

// The re-trace direction: error on the BEHIND core forwards it to the
// ahead core's position (always forward execution, §III-B2).
func TestRecoveryForwardsLaggingCore(t *testing.T) {
	p := skewedPair(t, "gzip")
	ahead := p.B.Position()
	p.ScheduleRecovery(p.Cycle()+1, 0) // error on the lagging core
	for i := 0; i < 5; i++ {
		p.Step()
	}
	if p.A.Position() < ahead {
		t.Errorf("lagging core not forwarded: A at %d, B was at %d", p.A.Position(), ahead)
	}
	if err := p.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestPairIPCZeroCycles pins the divide-by-zero guard: an unstepped
// pair reports IPC 0, never NaN.
func TestPairIPCZeroCycles(t *testing.T) {
	p := newPair(t, storeHeavy(16, 4), DefaultConfig())
	if got := p.IPC(); got != 0 {
		t.Errorf("unstepped pair IPC = %v, want 0", got)
	}
}

// TestPairEvents pins that the pair's event map mirrors its PairStats
// under the repository-wide taxonomy, including the summed per-replica
// CB-full stalls.
func TestPairEvents(t *testing.T) {
	p := newPair(t, storeHeavy(600, 4), Config{
		CBEntries: 2, CBEntryBytes: 12, DrainPerCycle: 1,
		RecoveryBase: 10, RecoveryPerReg: 1, RecoveryPerLine: 1,
	})
	if err := p.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	ev := p.Events()
	if ev[events.CBDrained] != p.Stats.Drained || p.Stats.Drained == 0 {
		t.Errorf("CB.DRAINED = %d, PairStats.Drained = %d", ev[events.CBDrained], p.Stats.Drained)
	}
	if want := p.Stats.CBFullStall[0] + p.Stats.CBFullStall[1]; ev[events.CBFullStall] != want {
		t.Errorf("CB.FULL_STALL = %d, want summed %d", ev[events.CBFullStall], want)
	}
}

// TestResetStatsClearsHierarchy pins that the pair's warmup reset also
// covers the memory hierarchy, so memory-side event counts cannot leak
// warmup traffic into the measurement window.
func TestResetStatsClearsHierarchy(t *testing.T) {
	p := newPair(t, storeHeavy(400, 4), DefaultConfig())
	if err := p.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Hier.Cores[p.A.ID].L1D.Stats.Accesses == 0 {
		t.Fatal("no L1D traffic before reset — test is vacuous")
	}
	p.ResetStats()
	if got := p.Hier.Cores[p.A.ID].L1D.Stats.Accesses; got != 0 {
		t.Errorf("L1D accesses after ResetStats = %d, want 0", got)
	}
	if got := p.Hier.L2.Stats.Accesses; got != 0 {
		t.Errorf("L2 accesses after ResetStats = %d, want 0", got)
	}
}
