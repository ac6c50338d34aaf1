package experiments

import (
	"context"

	"math"
	"strings"
	"testing"

	"github.com/cmlasu/unsync/internal/sweep"
	"github.com/cmlasu/unsync/internal/trace"
)

func TestTableI(t *testing.T) {
	s := TableI().Text()
	for _, want := range []string{"Issue Queue", "64", "4MB", "400-cycle", "write-through"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestTableIIHeadlines(t *testing.T) {
	res, tab := TableII()
	if math.Abs(res.AreaSavingPP-13.32) > 0.7 {
		t.Errorf("area saving = %.2f pp", res.AreaSavingPP)
	}
	if math.Abs(res.PowerSavingPP-34.45) > 2 {
		t.Errorf("power saving = %.2f pp", res.PowerSavingPP)
	}
	if math.Abs(res.CAOReunion-0.2077) > 0.005 || math.Abs(res.CAOUnSync-0.0745) > 0.005 {
		t.Errorf("CAOs = %.4f / %.4f", res.CAOReunion, res.CAOUnSync)
	}
	if !strings.Contains(tab.Text(), "Total Area") {
		t.Error("render missing rows")
	}
}

func TestTableIIIMatchesPaper(t *testing.T) {
	rows, tab := TableIII()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// With the computed (not paper-constant) CAOs, the projections must
	// still land within 2 mm² of the paper's numbers.
	want := map[string][2]float64{
		"Polaris": {316.54, 289.90},
		"Tile64":  {377.85, 347.16},
		"GeForce": {549.76, 498.61},
	}
	for _, r := range rows {
		w := want[r.Processor.Name]
		if math.Abs(r.ReunionMM2-w[0]) > 2 || math.Abs(r.UnSyncMM2-w[1]) > 2 {
			t.Errorf("%s projection = %.2f/%.2f, want ~%.2f/%.2f",
				r.Processor.Name, r.ReunionMM2, r.UnSyncMM2, w[0], w[1])
		}
	}
	if !strings.Contains(tab.Text(), "Difference") {
		t.Error("render missing difference row")
	}
}

func TestFig4QuickShape(t *testing.T) {
	o := QuickOptions()
	res, err := Fig4(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(o.Benchmarks) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Headline shape: Reunion's mean overhead clearly above UnSync's.
	if res.MeanReunionPct <= res.MeanUnSyncPct {
		t.Errorf("mean overheads: reunion %.1f%% <= unsync %.1f%%",
			res.MeanReunionPct, res.MeanUnSyncPct)
	}
	// UnSync stays near the baseline (paper: ~2%).
	if res.MeanUnSyncPct > 8 {
		t.Errorf("UnSync mean overhead %.1f%% too large", res.MeanUnSyncPct)
	}
	// The serializing-heavy benchmarks hurt Reunion most.
	bz, ok := res.Row("bzip2")
	if !ok {
		t.Fatal("bzip2 missing")
	}
	if bz.ReunionOvhPct < 5 {
		t.Errorf("bzip2 Reunion overhead %.1f%%, expected >5%%", bz.ReunionOvhPct)
	}
	// Per benchmark, UnSync's overhead stays below Reunion's.
	for _, r := range res.Rows {
		if r.UnSyncOvhPct >= r.ReunionOvhPct {
			t.Errorf("%s: UnSync overhead %.2f%% not below Reunion %.2f%%",
				r.Benchmark, r.UnSyncOvhPct, r.ReunionOvhPct)
		}
	}
	// Within a family the serializing-heavy member pays more under
	// Reunion; bzip2/gzip is the family pair inside QuickOptions.
	gz, ok := res.Row("gzip")
	if !ok {
		t.Fatal("gzip missing")
	}
	if bz.ReunionOvhPct <= gz.ReunionOvhPct {
		t.Errorf("Reunion overhead: bzip2 %.2f%% not above gzip %.2f%%",
			bz.ReunionOvhPct, gz.ReunionOvhPct)
	}
	if _, ok := res.Row("nonexistent"); ok {
		t.Error("Row found a nonexistent benchmark")
	}
	if !strings.Contains(res.Render().Text(), "MEAN") {
		t.Error("render missing MEAN row")
	}
}

func TestFig5QuickShape(t *testing.T) {
	o := QuickOptions()
	var benches []trace.Profile
	for _, n := range []string{"ammp", "galgel"} {
		p, _ := trace.ByName(n)
		benches = append(benches, p)
	}
	points := []sweep.Pair[int, uint64]{{X: 1, Y: 10}, {X: 10, Y: 20}, {X: 30, Y: 40}}
	res, err := Fig5(context.Background(), o, benches, points)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 || len(res.Benchmarks) != 2 {
		t.Fatalf("shape: %d points, %d benches", len(res.Points), len(res.Benchmarks))
	}
	// The Fig 5 claim for the ROB-saturating benchmarks: every point
	// after the first is strictly below the first. Not monotone along
	// the sweep — galgel's loss peaks mid-sweep (quick scale 0.932,
	// 0.701, 0.727).
	for i, b := range res.Benchmarks {
		first := res.Points[0].Relative[i]
		for k, p := range res.Points[1:] {
			if p.Relative[i] >= first {
				t.Errorf("%s: point %d not below the first (%.3f >= %.3f)", b, k+1, p.Relative[i], first)
			}
		}
	}
	// galgel's endpoint loss should exceed ammp's (paper: 41% vs 27%).
	g0, _ := res.Relative(0, "galgel")
	gN, _ := res.Relative(len(res.Points)-1, "galgel")
	a0, _ := res.Relative(0, "ammp")
	aN, _ := res.Relative(len(res.Points)-1, "ammp")
	lossG := (g0 - gN) / g0
	lossA := (a0 - aN) / a0
	if lossG <= 0 || lossA <= 0 {
		t.Errorf("losses not positive: galgel %.3f ammp %.3f", lossG, lossA)
	}
	if !strings.Contains(res.Render().Text(), "FI=30") {
		t.Error("render missing sweep points")
	}
	if _, ok := res.Relative(0, "nope"); ok {
		t.Error("Relative found a nonexistent benchmark")
	}
}

func TestFig6QuickShape(t *testing.T) {
	o := QuickOptions()
	var benches []trace.Profile
	for _, n := range []string{"bzip2", "qsort"} {
		p, _ := trace.ByName(n)
		benches = append(benches, p)
	}
	res, err := Fig6(context.Background(), o, benches, []int{2, 10, 170})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// EXPERIMENTS.md's claim: CB-full stalls fall with size and vanish
	// at 2 KB, relative performance never drops as the CB grows, and
	// the 2 KB point matches the baseline (paper: identical
	// performance).
	for i := 1; i < len(res.Points); i++ {
		prev, cur := res.Points[i-1], res.Points[i]
		if cur.MeanCBFullStalls >= prev.MeanCBFullStalls {
			t.Errorf("CB-full stalls did not fall from %d to %d entries: %.4f -> %.4f",
				prev.CBEntries, cur.CBEntries, prev.MeanCBFullStalls, cur.MeanCBFullStalls)
		}
		if res.MeanRelative(i) < res.MeanRelative(i-1) {
			t.Errorf("bigger CB slower: %d entries %.4f < %d entries %.4f",
				cur.CBEntries, res.MeanRelative(i), prev.CBEntries, res.MeanRelative(i-1))
		}
	}
	if s := res.Points[2].MeanCBFullStalls; s != 0 {
		t.Errorf("2KB CB-full stall fraction %.4f, want 0", s)
	}
	if big := res.MeanRelative(2); big < 0.99 {
		t.Errorf("2KB CB relative performance %.4f, want >= 0.99", big)
	}
	if res.Points[2].CBBytes != 170*12 {
		t.Errorf("CBBytes = %d", res.Points[2].CBBytes)
	}
	if !strings.Contains(res.Render().Text(), "entries") {
		t.Error("render missing size labels")
	}
}

func TestSERSweepQuick(t *testing.T) {
	o := QuickOptions()
	o.Benchmarks = o.Benchmarks[:2]
	res, err := SERSweep(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorFreeUnSync <= res.ErrorFreeReunion {
		t.Errorf("error-free IPC: unsync %.3f <= reunion %.3f",
			res.ErrorFreeUnSync, res.ErrorFreeReunion)
	}
	if res.CostUnSync <= res.CostReunion {
		t.Error("UnSync recovery must cost more per error than Reunion rollback")
	}
	if res.BreakEvenSER <= 0 {
		t.Fatal("no break-even SER found")
	}
	if res.BreakEvenSER < 1e-7 || res.BreakEvenSER > 1e-1 {
		t.Errorf("break-even SER = %g, expected in the paper's ballpark (~1e-3)", res.BreakEvenSER)
	}
	// Flatness: across 1e-17..1e-7 the IPC varies by < 0.1%.
	var lo, hi float64 = math.Inf(1), 0
	for _, p := range res.Analytic {
		if p.Rate <= 1e-7 {
			if p.UnSyncIPC < lo {
				lo = p.UnSyncIPC
			}
			if p.UnSyncIPC > hi {
				hi = p.UnSyncIPC
			}
		}
	}
	if (hi-lo)/hi > 0.001 {
		t.Errorf("IPC not flat across low SER: %.5f..%.5f", lo, hi)
	}
	// The §VI-C crossover: UnSync's error-free lead decides below the
	// break-even SER, Reunion's cheaper recovery above it.
	for _, p := range res.Analytic {
		if p.Rate < res.BreakEvenSER && p.UnSyncIPC <= p.ReunionIPC {
			t.Errorf("SER %g below break-even %g: UnSync IPC %.4f <= Reunion %.4f",
				p.Rate, res.BreakEvenSER, p.UnSyncIPC, p.ReunionIPC)
		}
		if p.Rate > res.BreakEvenSER && p.ReunionIPC <= p.UnSyncIPC {
			t.Errorf("SER %g above break-even %g: Reunion IPC %.4f <= UnSync %.4f",
				p.Rate, res.BreakEvenSER, p.ReunionIPC, p.UnSyncIPC)
		}
	}
	// Injected validation points exist and degrade with rate.
	if len(res.Injected) != len(serInjectionRates) {
		t.Fatalf("injected points = %d", len(res.Injected))
	}
	last := res.Injected[len(res.Injected)-1]
	if last.UnSyncIPC >= res.ErrorFreeUnSync {
		t.Error("injected errors did not reduce UnSync IPC")
	}
	// The simulated 1e-3 point lies past break-even and agrees with the
	// analytic crossover. The 1e-4 point, also past break-even, reads
	// UnSync a hair ahead in a quick window (0.412 vs 0.411), so it is
	// not checked.
	if last.Rate != 1e-3 || last.ReunionIPC <= last.UnSyncIPC {
		t.Errorf("injected SER %g: Reunion IPC %.4f, want it ahead of UnSync %.4f",
			last.Rate, last.ReunionIPC, last.UnSyncIPC)
	}
	if !strings.Contains(res.Render().Text(), "break-even") {
		t.Error("render missing break-even note")
	}
}

func TestROECQuick(t *testing.T) {
	res, err := ROEC(context.Background(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.UnSyncFrac != 1 {
		t.Errorf("UnSync coverage fraction = %.3f", res.UnSyncFrac)
	}
	if res.ReunionFrac >= res.UnSyncFrac {
		t.Error("Reunion ROEC must be smaller")
	}
	if res.UnSyncCampaign.CorrectRate() != 1 {
		t.Errorf("UnSync campaign correct rate = %.2f", res.UnSyncCampaign.CorrectRate())
	}
	if res.ReunionTransient.CorrectRate() != 1 {
		t.Errorf("Reunion transient correct rate = %.2f", res.ReunionTransient.CorrectRate())
	}
	if res.ReunionPersistent.Unrecoverable == 0 {
		t.Error("persistent campaign should show unrecoverable upsets")
	}
	if !strings.Contains(res.Render().Text(), "Coverage fraction") {
		t.Error("render incomplete")
	}
	if !strings.Contains(StructuralTable().Text(), "regfile") {
		t.Error("structural table incomplete")
	}
}

func TestOptionsHelpers(t *testing.T) {
	o := DefaultOptions()
	if len(o.Benchmarks) != 28 {
		t.Errorf("default benchmarks = %d, want 28", len(o.Benchmarks))
	}
	q := QuickOptions()
	if len(q.Benchmarks) == 0 || q.RC.MeasureInsts >= o.RC.MeasureInsts {
		t.Error("quick options not scaled down")
	}
	if len(q.names()) != len(q.Benchmarks) {
		t.Error("names helper wrong")
	}
}

func TestAblationWritePolicy(t *testing.T) {
	o := QuickOptions()
	o.Benchmarks = o.Benchmarks[:2]
	rows, err := AblationWritePolicy(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MeanDirtyWB <= 0 {
			t.Errorf("%s: no dirty-line exposure measured under write-back", r.Benchmark)
		}
		if r.MeanDirtyWT != 0 {
			t.Errorf("%s: write-through must have zero dirty lines", r.Benchmark)
		}
		if r.WTRelativePerf < 0.9 || r.WTRelativePerf > 1.1 {
			t.Errorf("%s: WT relative perf = %.3f", r.Benchmark, r.WTRelativePerf)
		}
	}
	if !strings.Contains(RenderWritePolicy(rows).Text(), "Dirty") {
		t.Error("render incomplete")
	}
}

func TestAblationForwarding(t *testing.T) {
	o := QuickOptions()
	o.Benchmarks = o.Benchmarks[:2]
	rows, err := AblationForwarding(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.WithoutFwdIPC >= r.WithFwdIPC {
			t.Errorf("%s: removing forwarding did not slow Reunion (%.3f vs %.3f)",
				r.Benchmark, r.WithoutFwdIPC, r.WithFwdIPC)
		}
		if r.SlowdownPct < 5 {
			t.Errorf("%s: no-forwarding slowdown only %.1f%% — should be substantial",
				r.Benchmark, r.SlowdownPct)
		}
	}
	if !strings.Contains(RenderForwarding(rows).Text(), "forwarding") {
		t.Error("render incomplete")
	}
}

func TestAblationDetection(t *testing.T) {
	rows := AblationDetection()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var hybrid, parity, dmr DetectionRow
	for _, r := range rows {
		switch {
		case strings.Contains(r.Name, "hybrid"):
			hybrid = r
		case strings.Contains(r.Name, "parity"):
			parity = r
		case strings.Contains(r.Name, "DMR"):
			dmr = r
		}
	}
	// The paper's argument: parity-everywhere is cheapest but leaves
	// per-cycle elements unprotected; DMR-everywhere costs far more
	// than the hybrid.
	if !(parity.AreaUM2 < hybrid.AreaUM2 && hybrid.AreaUM2 < dmr.AreaUM2) {
		t.Errorf("area ordering wrong: parity %.0f, hybrid %.0f, dmr %.0f",
			parity.AreaUM2, hybrid.AreaUM2, dmr.AreaUM2)
	}
	if dmr.PowerOvhPct < 1.5*hybrid.PowerOvhPct {
		t.Errorf("DMR-everywhere power overhead %.1f%% not clearly above hybrid %.1f%%",
			dmr.PowerOvhPct, hybrid.PowerOvhPct)
	}
	if !strings.Contains(RenderDetection(rows).Text(), "hybrid") {
		t.Error("render incomplete")
	}
}

func TestRedundancyStudyQuick(t *testing.T) {
	o := QuickOptions()
	res, err := RedundancyStudy(context.Background(), o, "gzip", []float64{0, 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	clean, hot := res.Points[0], res.Points[1]
	// Error-free: the two degrees run at essentially the same pace.
	if clean.TMRIPC < 0.9*clean.DMRIPC {
		t.Errorf("error-free TMR %.3f far below DMR %.3f", clean.TMRIPC, clean.DMRIPC)
	}
	// Under heavy errors TMR's masking must beat the pair-wide stall.
	if hot.TMRIPC <= hot.DMRIPC {
		t.Errorf("at 1e-3 TMR %.3f not above DMR %.3f", hot.TMRIPC, hot.DMRIPC)
	}
	// Silicon: the triple costs ~50% more.
	ratio := res.TMRAreaUM2 / res.DMRAreaUM2
	if ratio < 1.4 || ratio > 1.6 {
		t.Errorf("TMR/DMR silicon ratio = %.2f", ratio)
	}
	if !strings.Contains(res.Render().Text(), "TMR triple") {
		t.Error("render incomplete")
	}
	if _, err := RedundancyStudy(context.Background(), o, "bogus", nil); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestChipInterferenceQuick(t *testing.T) {
	o := QuickOptions()
	rows, err := ChipInterference(context.Background(), o, [][2]string{{"sha", "crc32"}}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.AloneIPC <= 0 || r.CoRunIPC <= 0 {
		t.Fatalf("IPCs: %v", r)
	}
	// Sharing the L2/bus can only slow the pair down (or leave it flat).
	if r.CoRunIPC > r.AloneIPC*1.02 {
		t.Errorf("co-running sped the pair up: %.3f vs %.3f", r.CoRunIPC, r.AloneIPC)
	}
	if !strings.Contains(RenderInterference(rows).Text(), "Neighbor") {
		t.Error("render incomplete")
	}
	if _, err := ChipInterference(context.Background(), o, [][2]string{{"bogus", "sha"}}, 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFigureCharts(t *testing.T) {
	o := QuickOptions()
	o.Benchmarks = o.Benchmarks[:2]
	f4, err := Fig4(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f4.Chart(), "#") {
		t.Error("Fig4 chart empty")
	}
	var benches []trace.Profile
	p, _ := trace.ByName("ammp")
	benches = append(benches, p)
	f5, err := Fig5(context.Background(), o, benches, []sweep.Pair[int, uint64]{{X: 1, Y: 10}, {X: 30, Y: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f5.Chart(), "ammp") {
		t.Error("Fig5 chart missing series")
	}
	f6, err := Fig6(context.Background(), o, benches, []int{2, 170})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f6.Chart(), "2040B") {
		t.Error("Fig6 chart missing x labels")
	}
}

func TestAVFEstimateQuick(t *testing.T) {
	o := QuickOptions()
	o.Benchmarks = o.Benchmarks[:2]
	rows, err := AVFEstimate(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TotalBits <= 0 {
			t.Errorf("%s: no vulnerable mass", r.Benchmark)
		}
		if r.UnSyncExposed != 0 {
			t.Errorf("%s: UnSync exposure %.0f, want 0 (full ROEC)", r.Benchmark, r.UnSyncExposed)
		}
		if r.ReunionExposed <= 0 || r.ReunionExposed >= r.TotalBits {
			t.Errorf("%s: Reunion exposure %.0f of %.0f", r.Benchmark, r.ReunionExposed, r.TotalBits)
		}
	}
	if !strings.Contains(RenderAVF(rows).Text(), "exposure") {
		t.Error("render incomplete")
	}
}

func TestReplicatedFig4(t *testing.T) {
	o := QuickOptions()
	o.Benchmarks = o.Benchmarks[:2]
	o.RC.MeasureInsts = 25_000
	rows, err := ReplicatedFig4(context.Background(), o, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.UnSync.N != 3 || r.Reunion.N != 3 {
			t.Errorf("%s: replica counts wrong", r.Benchmark)
		}
		if r.Reunion.Mean <= r.UnSync.Mean {
			t.Errorf("%s: replicated means lost the ordering (%.1f vs %.1f)",
				r.Benchmark, r.Reunion.Mean, r.UnSync.Mean)
		}
	}
	// The architecture gap must be clear of generator noise for at
	// least one of the two benchmarks at 2 sigma.
	if SignalToNoise(rows, 2) == 0 {
		t.Error("no benchmark separates signal from noise at 2 sigma")
	}
	if !strings.Contains(RenderReplicated(rows).Text(), "±") {
		t.Error("render incomplete")
	}
	if _, err := ReplicatedFig4(context.Background(), o, 1); err == nil {
		t.Error("single replica accepted")
	}
}

func TestReseededChangesStream(t *testing.T) {
	p, _ := trace.ByName("gzip")
	a := trace.Collect(trace.NewGenerator(p.Reseeded(0)), 100)
	b := trace.Collect(trace.NewGenerator(p.Reseeded(1)), 100)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("reseeding did not change the stream")
	}
	c := trace.Collect(trace.NewGenerator(p.Reseeded(0)), 100)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("k=0 must be the canonical stream")
		}
	}
}

func TestEnergyStudyQuick(t *testing.T) {
	o := QuickOptions()
	o.Benchmarks = o.Benchmarks[:2]
	rows, err := EnergyStudy(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BaselineNJ <= 0 || r.UnSyncNJ <= 0 || r.ReunionNJ <= 0 {
			t.Fatalf("%s: non-positive energies: %+v", r.Benchmark, r)
		}
		// Redundancy costs energy: a pair must burn more per
		// instruction than the single core.
		if r.UnSyncNJ <= r.BaselineNJ {
			t.Errorf("%s: UnSync pair cheaper than a single core", r.Benchmark)
		}
		// The headline: UnSync beats Reunion on energy per instruction
		// (lower power AND higher throughput).
		if r.UnSyncNJ >= r.ReunionNJ {
			t.Errorf("%s: UnSync %.2f nJ not below Reunion %.2f nJ",
				r.Benchmark, r.UnSyncNJ, r.ReunionNJ)
		}
	}
	if !strings.Contains(RenderEnergy(rows).Text(), "nJ") {
		t.Error("render incomplete")
	}
}
