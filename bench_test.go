package unsync

// One testing.B benchmark per table and figure of the paper's
// evaluation (§V–§VI), plus microbenchmarks of the simulator itself.
// Each experiment benchmark runs the scaled-down quick configuration
// once per iteration and reports the headline quantities as custom
// metrics, so `go test -bench=. -benchmem` regenerates the whole
// evaluation in miniature. Run cmd/unsync-bench for the full-scale
// versions.

import (
	"context"

	"testing"

	"github.com/cmlasu/unsync/internal/cmp"
	"github.com/cmlasu/unsync/internal/experiments"
	"github.com/cmlasu/unsync/internal/sweep"
	"github.com/cmlasu/unsync/internal/trace"
)

func benchOpts() Options {
	o := QuickOptions()
	o.RC.WarmupInsts = 10_000
	o.RC.MeasureInsts = 30_000
	return o
}

// BenchmarkTableI renders the configuration table.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if TableI() == nil {
			b.Fatal("nil table")
		}
	}
}

// BenchmarkTableII computes the synthesis-model hardware comparison.
func BenchmarkTableII(b *testing.B) {
	var res TableIIResult
	for i := 0; i < b.N; i++ {
		res, _ = TableII()
	}
	b.ReportMetric(res.AreaSavingPP, "area-saving-pp")
	b.ReportMetric(res.PowerSavingPP, "power-saving-pp")
}

// BenchmarkTableIII projects the many-core die sizes.
func BenchmarkTableIII(b *testing.B) {
	var rows []DieProjection
	for i := 0; i < b.N; i++ {
		rows, _ = TableIII()
	}
	b.ReportMetric(rows[0].DifferenceMM2(), "polaris-saved-mm2")
	b.ReportMetric(rows[2].DifferenceMM2(), "geforce-saved-mm2")
}

// BenchmarkFig4 measures the serializing-instruction overhead study.
func BenchmarkFig4(b *testing.B) {
	o := benchOpts()
	var res Fig4Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Fig4(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanUnSyncPct, "unsync-ovh-pct")
	b.ReportMetric(res.MeanReunionPct, "reunion-ovh-pct")
}

// BenchmarkFig5 sweeps Reunion's FI / comparison latency.
func BenchmarkFig5(b *testing.B) {
	o := benchOpts()
	benches := []trace.Profile{}
	for _, n := range []string{"ammp", "galgel"} {
		p, _ := trace.ByName(n)
		benches = append(benches, p)
	}
	points := []sweep.Pair[int, uint64]{{X: 1, Y: 10}, {X: 15, Y: 25}, {X: 30, Y: 40}}
	var res Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig5(context.Background(), o, benches, points)
		if err != nil {
			b.Fatal(err)
		}
	}
	if last, ok := res.Relative(len(res.Points)-1, "galgel"); ok {
		b.ReportMetric(last, "galgel-rel-at-fi30")
	}
}

// BenchmarkFig6 sweeps the Communication Buffer size.
func BenchmarkFig6(b *testing.B) {
	o := benchOpts()
	benches := []trace.Profile{}
	for _, n := range []string{"bzip2", "qsort"} {
		p, _ := trace.ByName(n)
		benches = append(benches, p)
	}
	var res Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig6(context.Background(), o, benches, []int{2, 10, 170})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanRelative(0), "rel-at-2-entries")
	b.ReportMetric(res.MeanRelative(len(res.Points)-1), "rel-at-2KB")
}

// BenchmarkSERSweep runs the soft-error-rate study.
func BenchmarkSERSweep(b *testing.B) {
	o := benchOpts()
	o.Benchmarks = o.Benchmarks[:2]
	var res SERResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = SERSweep(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.BreakEvenSER, "break-even-ser")
	b.ReportMetric(res.ErrorFreeUnSync/res.ErrorFreeReunion, "unsync-speedup")
}

// BenchmarkROEC runs the coverage study's functional campaigns.
func BenchmarkROEC(b *testing.B) {
	var res ROECResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = ROEC(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.UnSyncCampaign.CorrectRate(), "unsync-correct-pct")
	b.ReportMetric(100*res.ReunionPersistent.CorrectRate(), "reunion-persistent-correct-pct")
}

// ---- simulator microbenchmarks ----
//
// Names are stable: CI selects them by regex. perfbench
// (BENCHMARK.json) holds the gated end-to-end and per-layer numbers.

// kernelProfile fetches a benchmark profile or fails the benchmark.
func kernelProfile(b *testing.B, name string) trace.Profile {
	p, ok := trace.ByName(name)
	if !ok {
		b.Fatalf("no %q profile", name)
	}
	return p
}

// runScheme is the shared body of the three pipeline kernels. Their
// operating point, 2k warmup and 20k measured instructions on gzip, is
// long enough to exercise steady-state commit and short enough to
// iterate.
func runScheme(b *testing.B, s cmp.Scheme) {
	rc := DefaultRunConfig()
	rc.WarmupInsts = 2_000
	rc.MeasureInsts = 20_000
	p := kernelProfile(b, "gzip")
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := cmp.Run(s, rc, p)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(cycles)/secs, "sim-cycles/s")
	}
}

// BenchmarkBaselineCore measures raw single-core simulation speed.
func BenchmarkBaselineCore(b *testing.B) { runScheme(b, cmp.Baseline) }

// BenchmarkUnSyncPair measures redundant-pair simulation speed.
func BenchmarkUnSyncPair(b *testing.B) { runScheme(b, cmp.UnSync) }

// BenchmarkReunionPair measures fingerprinted-pair simulation speed.
func BenchmarkReunionPair(b *testing.B) { runScheme(b, cmp.Reunion) }

// BenchmarkTraceGenerator measures workload-generation throughput (one
// record per iteration).
func BenchmarkTraceGenerator(b *testing.B) {
	g := trace.NewGenerator(kernelProfile(b, "bzip2"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("generator ended")
		}
	}
}

// BenchmarkEmulator measures functional-emulation throughput.
func BenchmarkEmulator(b *testing.B) {
	prog, err := Assemble(`
	loop:
		addi r1, r1, 1
		mul r2, r1, r1
		xor r3, r2, r1
		blt r1, r4, loop
		halt
	`)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMachine(prog)
	m.Regs[4] = ^uint64(0) >> 1 // effectively endless
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "emu-insts/s")
}
