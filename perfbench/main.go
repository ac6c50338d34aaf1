// Command perfbench is the repository benchmark. It drives one named
// workload through the public functions of the simulator's layers —
// the same paths unsync-bench, unsync-fault and unsync-fleet take —
// checks every simulated output against reference digests and
// seed-independent identities, and prints one JSON result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: fig-membound, fig-ilp, campaign, fleet (see README.md).
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run records spans around every layer
// call and reports the per-layer metrics instead. The last line of
// standard output is always the result object; progress goes to
// standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockNow is the single injectable wall clock of the benchmark. Every
// duration it reports is a difference of two clockNow readings; the
// simulated machines never see it.
//
//unsync:allow-wallclock benchmark timing only; never feeds simulation state
var clockNow = time.Now

// defaultSeed is the seed the committed reference digests belong to.
const defaultSeed = 1

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int    // worker goroutines and HTTP connections: nproc
	work     string // scratch directory for journals
	spanPath string // where the traced run writes its spans
	refDir   string // committed reference digests
	writeRef bool   // record digests instead of checking them
}

// workloads maps each workload name (README.md says why it exists) to
// its driver.
var workloads = map[string]func(cfg config, ck *checker) (metrics, error){
	"fig-membound": runFigMembound,
	"fig-ilp":      runFigILP,
	"campaign":     runCampaign,
	"fleet":        runFleet,
}

// result is the benchmark's output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: fig-membound, fig-ilp, campaign or fleet")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed (Profile.Reseeded and campaign.Spec.Seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured-phase length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 selects the traced run (per-layer metrics)")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "perfbench", "work"), "scratch directory")
	flag.StringVar(&cfg.refDir, "ref", filepath.Join("perfbench", "ref"), "reference digest directory")
	flag.BoolVar(&cfg.writeRef, "write-ref", false, "record this seed's digests into the reference directory")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.workers = runtime.NumCPU()

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles its result line. An error is
// a harness failure (bad flags, unreadable references); failed
// operations inside the workload are counted, not returned.
func run(cfg config) (result, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want fig-membound, fig-ilp, campaign or fleet)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	ref, err := loadRefs(cfg.refDir)
	if err != nil {
		return result{}, err
	}
	ck := newChecker(ref, cfg.workload, cfg.seed == defaultSeed && !cfg.writeRef)
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, fmt.Errorf("scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return result{}, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	cfg.spanPath = filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
	cfg.work = dir

	m, err := drive(cfg, ck)
	if err != nil {
		ck.fail("%s: %v", cfg.workload, err)
	}
	if cfg.writeRef {
		if err := ck.writeRefs(cfg.refDir); err != nil {
			return result{}, err
		}
	}
	if m == nil {
		m = metrics{}
	}
	for _, e := range ck.errs {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", e)
	}
	defs := endToEnd
	if cfg.trace {
		m.set("bench.fail_frac", "ratio", ck.failFrac())
		defs = perLayer
	}
	if err := m.complete(defs); err != nil {
		return result{}, err
	}
	return result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: m}, nil
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupRepeats is how many times a workload repeats its set-up; setup_s
// is the median.
const setupRepeats = 15

// timeSetup runs setup setupRepeats times, keeps the last product, and
// returns it with the median set-up time in CPU seconds of the
// process. Earlier products are released through discard before the
// next set-up starts, so they never add to the peak memory of the run.
func timeSetup[T any](cfg config, setup func() (T, error), discard func(T)) (T, float64, error) {
	var out T
	var cpu, host []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			discard(out)
			runtime.GC()
		}
		var v T
		var err error
		c := measure(func() { v, err = setup() })
		if err != nil {
			return out, 0, err
		}
		cpu = append(cpu, c.cpu)
		host = append(host, c.host)
		out = v
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s set-up: median of %d: cpu %.6gs, host %.6gs\n",
		cfg.workload, setupRepeats, median(cpu), median(host))
	// Return the earlier set-ups' freed pages to the OS, so how much of
	// them the measured phase reuses does not depend on the scavenger's
	// timing.
	debug.FreeOSMemory()
	return out, median(cpu), nil
}

// cost is the host time one measured call took. wall is wall-clock
// seconds. host is wall minus the share of the interval that the
// hypervisor gave the guest's CPUs to other tenants (the steal column
// of /proc/stat); on a host without steal accounting it equals wall.
// cpu is the CPU seconds of the whole process (every thread, user plus
// system). Idle and blocked time does not show in cpu; it shows in the
// ratio of cpu to host.
type cost struct{ wall, host, cpu float64 }

// measure runs f and returns its cost.
func measure(f func()) cost {
	s0, w0, c0 := readSteal(), clockNow(), cpuSeconds()
	f()
	wall := clockNow().Sub(w0).Seconds()
	return cost{wall: wall, host: wall * (1 - s0.shareUntil(readSteal())), cpu: cpuSeconds() - c0}
}

// steal is one reading of the host's aggregate CPU time counters, in
// clock ticks.
type steal struct{ steal, total uint64 }

// readSteal reads the aggregate "cpu" line of /proc/stat. It returns
// the zero reading where the file is missing or malformed, which
// makes shareUntil report no steal.
func readSteal() steal {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return steal{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseSteal(line)
}

// parseSteal parses the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal, then guest columns that are
// already counted inside user and nice.
func parseSteal(line string) steal {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return steal{}
	}
	var s steal
	for _, x := range f[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return steal{}
		}
		s.total += v
		s.steal = v // the last column read is steal
	}
	return s
}

// shareUntil is the fraction of the host's CPU time between two
// readings that was stolen, in [0, 1).
func (s steal) shareUntil(later steal) float64 {
	if s.total == 0 || later.total <= s.total || later.steal < s.steal {
		return 0
	}
	share := float64(later.steal-s.steal) / float64(later.total-s.total)
	return min(share, 0.99)
}

// throughput collects a measured phase's per-iteration rates.
type throughput struct {
	workload, unit string
	workers        int       // worker goroutines the workload runs
	rates          []float64 // units of work per CPU second, per iteration
	utils          []float64 // CPU seconds ÷ (workers × host seconds), per iteration
	peakMB         float64   // peak RSS once the first iteration has ended
}

func (cfg config) throughput(unit string) *throughput {
	return &throughput{workload: cfg.workload, unit: unit, workers: cfg.workers}
}

// add records one iteration that did units of work (Minst or trials)
// at cost c, and prints it to standard error, wall-clock and host
// rates included, for a reader watching the run.
func (t *throughput) add(units float64, c cost) {
	t.rates = append(t.rates, units/c.cpu)
	t.utils = append(t.utils, c.cpu/(float64(t.workers)*c.host))
	if len(t.rates) == 1 {
		// The peak over the whole phase would grow with its length:
		// each iteration's peak depends on where the GC cycles fall,
		// and the process keeps the highest.
		t.peakMB = peakRSSMB()
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: %.6g %s, wall %.3fs (%.6g/s), host %.3fs (%.6g/s), cpu %.3fs (%.6g/cpu-s), utilization %.4f\n",
		t.workload, len(t.rates), units, t.unit, c.wall, units/c.wall, c.host, units/c.host, c.cpu, units/c.cpu, t.utils[len(t.utils)-1])
}

// report sets the measured throughput metric and cpu_utilization to
// the medians over the iterations, and peak_rss_mb to the peak of
// set-up and the first iteration. It returns the median rate.
func (t *throughput) report(m metrics, name, unit string) float64 {
	r := median(t.rates)
	m.set(name, unit, r)
	m.set("cpu_utilization", "ratio", median(t.utils))
	m.set("peak_rss_mb", "MB", t.peakMB)
	return r
}

// inTempDir runs f in a fresh directory under parent and removes it.
func inTempDir(parent string, f func(dir string)) error {
	dir, err := os.MkdirTemp(parent, "iter-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f(dir)
	return nil
}

// repeat runs iteration until the measured phase has used its seconds:
// at least once, and never starting an iteration expected to end more
// than half an iteration past the deadline. Each iteration starts from
// a collected heap, so one iteration's garbage never taxes the next.
// iteration returns false to stop early.
func (cfg config) repeat(iteration func() bool) {
	start := clockNow()
	for {
		runtime.GC()
		t0 := clockNow()
		if !iteration() {
			return
		}
		now := clockNow()
		if now.Sub(start).Seconds()+now.Sub(t0).Seconds()/2 > cfg.seconds {
			return
		}
	}
}

// hostMetrics records the Go runtime's share of CPU spent in GC.
func hostMetrics(m metrics) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.set("runtime.gc_cpu_frac", "ratio", ms.GCCPUFraction)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
