package main

import (
	"context"
	"fmt"

	"github.com/cmlasu/unsync/internal/cmp"
	unsync "github.com/cmlasu/unsync/internal/core"
	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/experiments"
	"github.com/cmlasu/unsync/internal/mem"
	"github.com/cmlasu/unsync/internal/pipeline"
	"github.com/cmlasu/unsync/internal/reunion"
	"github.com/cmlasu/unsync/internal/trace"
)

// The two Fig 4 workloads differ only in their profiles: memory-bound
// (baseline IPC 0.06–0.23, most cycles wait on DRAM) and high-ILP
// (IPC 1.7–2.0, per-cycle cost dominates).
var (
	memboundProfiles = []string{"mcf", "twolf", "perlbmk", "gcc"}
	ilpProfiles      = []string{"crc32", "sha", "bitcount", "gsm"}
)

// figSchemes are the machines Fig 4 runs per profile, in its order.
var figSchemes = []cmp.Scheme{cmp.Baseline, cmp.UnSync, cmp.Reunion}

func runFigMembound(cfg config, ck *checker) (metrics, error) {
	return runFig(cfg, ck, memboundProfiles)
}

func runFigILP(cfg config, ck *checker) (metrics, error) { return runFig(cfg, ck, ilpProfiles) }

// figSetup builds the Fig 4 options for the workload: the Table I
// machine with default windows, the seeded profiles, nproc workers,
// and a replay cache already holding every profile's trace.
func figSetup(cfg config, names []string) (experiments.Options, error) {
	o := experiments.DefaultOptions()
	o.Workers = cfg.workers
	o.Benchmarks = nil
	src := cmp.NewCachedSource(trace.DefaultCacheBudget)
	o.RC.Source = src
	for _, name := range names {
		p, ok := trace.ByName(name)
		if !ok {
			return o, fmt.Errorf("no %q profile", name)
		}
		p = p.Reseeded(cfg.seed)
		o.Benchmarks = append(o.Benchmarks, p)
		src.Cache.Get(p, o.RC.TotalInsts())
	}
	return o, nil
}

// figInsts is the warmup plus measured instructions of every cmp run
// one Fig 4 call makes.
func figInsts(o experiments.Options) float64 {
	return float64(len(figSchemes)*len(o.Benchmarks)) * float64(o.RC.TotalInsts())
}

func runFig(cfg config, ck *checker, names []string) (metrics, error) {
	o, setupS, err := timeSetup(cfg, func() (experiments.Options, error) { return figSetup(cfg, names) },
		func(experiments.Options) {})
	if err != nil {
		return nil, err
	}
	m := metrics{}
	if cfg.trace {
		return m, traceFig(cfg, ck, o, m)
	}
	m.set("setup_s", "s", setupS)
	minst := figInsts(o) / 1e6
	insts := cfg.throughput("Minst")
	cfg.repeat(func() bool {
		c, ok := fig4(ck, o)
		if ok {
			insts.add(minst, c)
		}
		return ok
	})
	rate := insts.report(m, "sim_minst_per_cpu_s", "Minst/cpu-s")
	// Derived: every cmp run of the call simulates the same window.
	m.set("trials_per_cpu_s", "1/cpu-s", rate/minst*float64(len(figSchemes)*len(o.Benchmarks)))
	return m, nil
}

// fig4 runs experiments.Fig4 once, checks its rows, and returns its
// cost.
func fig4(ck *checker, o experiments.Options) (cost, bool) {
	runs := len(figSchemes) * len(o.Benchmarks)
	var res experiments.Fig4Result
	var err error
	c := measure(func() { res, err = experiments.Fig4(context.Background(), o) })
	if err != nil {
		ck.failures(runs, "experiments.Fig4: %v", err)
		return c, false
	}
	ck.ops(runs)
	ck.expect(len(res.Rows) == len(o.Benchmarks), "Fig4 returned %d rows for %d profiles", len(res.Rows), len(o.Benchmarks))
	ck.reference("fig4.rows", digestOf(res.Rows))
	return c, true
}

// tracedSource is the stream source of the traced Fig 4 call. Every
// stream it hands out is a span, named after its profile, from the
// moment a cmp machine opens it until the machine reads past its last
// record. A sweep worker runs one profile's cmp runs back to back, so
// the union of a profile's stream spans is the time a worker spent
// simulating it.
type tracedSource struct {
	cmp.StreamSource
	tr     *tracer
	parent int
}

func (s tracedSource) Stream(p trace.Profile, n uint64) trace.Stream {
	return &tracedStream{
		Stream: s.StreamSource.Stream(p, n),
		tr:     s.tr,
		span:   s.tr.begin("cmp.stream."+p.Name, s.parent),
	}
}

// tracedStream closes its span when the stream is exhausted.
type tracedStream struct {
	trace.Stream
	tr   *tracer
	span int
	done bool
}

func (t *tracedStream) Next() (trace.Record, bool) {
	r, ok := t.Stream.Next()
	if !ok && !t.done {
		t.done = true
		t.tr.end(t.span)
	}
	return r, ok
}

// traceFig is the traced run of a Fig 4 workload. It times one
// untraced experiments.Fig4 call and one whose stream source records a
// span per stream, and reads the sweep's busy and idle time off the
// real driver. Then it times each cmp run on its own and each lower
// layer by driving its public functions on the workload's traces.
func traceFig(cfg config, ck *checker, o experiments.Options, m metrics) error {
	tr := newTracer()
	untraced, ok := fig4(ck, o)
	if !ok {
		return nil
	}

	tr.newRun()
	root := tr.begin("experiments.Fig4", 0)
	traced := o
	traced.RC.Source = tracedSource{StreamSource: o.RC.Source, tr: tr, parent: root}
	c, ok := fig4(ck, traced)
	tr.end(root)
	if !ok {
		return nil
	}
	m.set("bench.tracing_overhead_frac", "ratio", c.host/untraced.host-1)

	spans := tr.snapshot()
	call := spans[root-1]
	streams := map[string][]span{}
	for _, s := range spans {
		if s.Parent == root {
			streams[s.Name] = append(streams[s.Name], s)
		}
	}
	var busy int64
	for _, p := range o.Benchmarks {
		busy += covered(call, streams["cmp.stream."+p.Name])
	}
	workers := min(o.Workers, len(o.Benchmarks))
	m.set("sweep.worker_busy_frac", "ratio", float64(busy)/(float64(workers)*float64(call.dur())))
	m.set("cmp.unattributed_frac", "ratio", float64(selfTimes(spans)[root])/float64(call.dur()))

	cmpRuns(tr, ck, o, m)
	layerUnitCosts(tr, o, m)
	hostMetrics(m)
	return tr.write(cfg.spanPath)
}

// cmpRuns times every (profile, scheme) run of Fig 4 on its own, one
// at a time, through cmp.RunContext. It checks each run's cycle
// accounting identity and digests the runs' events.
func cmpRuns(tr *tracer, ck *checker, o experiments.Options, m metrics) {
	var evs []events.Counts
	ns := map[cmp.Scheme]int64{}
	cycles := map[cmp.Scheme]uint64{}
	var idle, total uint64
	for _, p := range o.Benchmarks {
		for _, s := range figSchemes {
			id := tr.begin("cmp.RunContext."+string(s), 0)
			r, err := cmp.RunContext(context.Background(), s, o.RC, p)
			ns[s] += tr.end(id)
			if !ck.op(err, fmt.Sprintf("cmp.RunContext %s/%s", p.Name, s)) {
				continue
			}
			evs = append(evs, r.Events)
			cycles[s] += r.Cycles
			stalls := r.Events[events.CommitStallEmpty] + r.Events[events.CommitStallExec] +
				r.Events[events.CommitStallGate] + r.Events[events.FrozenCycles]
			ck.expect(stalls+r.Events[events.CommitCycles] == r.Events[events.Cycles],
				"%s/%s: commit+stall+frozen cycles %d != CYCLES %d", r.Benchmark, r.Scheme,
				stalls+r.Events[events.CommitCycles], r.Events[events.Cycles])
			idle += stalls
			total += r.Events[events.Cycles]
		}
	}
	ck.reference("cmp.events", digestOf(evs))
	for _, s := range figSchemes {
		m.set("cmp.run_ns_per_cycle."+string(s), "ns", float64(ns[s])/float64(cycles[s]))
	}
	m.set("pipeline.idle_cycle_frac", "ratio", float64(idle)/float64(total))
}

// layerUnitCosts times the layers under cmp by driving their own public
// functions over each profile's trace: trace materialization and
// replay over the whole window, and the pipeline, memory hierarchy and
// both redundant pairs over the warmup window.
func layerUnitCosts(tr *tracer, o experiments.Options, m metrics) {
	n := o.RC.TotalInsts()
	window := o.RC.WarmupInsts
	var matNs, replayNs, replayed int64
	var stepNs, stepCycles, memNs, memAccesses, memInsts int64
	var usNs, usCycles, reNs, reCycles int64
	timed := func(name string, f func()) int64 {
		id := tr.begin(name, 0)
		f()
		return tr.end(id)
	}
	for _, p := range o.Benchmarks {
		matNs += timed("trace.Materialize", func() { trace.Materialize(p, n) })
		mat := o.RC.Source.(cmp.CachedSource).Cache.Get(p, n)
		replayNs += timed("trace.ReplayStream.Next", func() {
			st := mat.Stream()
			for _, ok := st.Next(); ok; _, ok = st.Next() {
				replayed++
			}
		})

		stream := func() trace.Stream { return trace.NewLimit(mat.Stream(), window) }
		core := pipeline.NewCore(o.RC.Core, 0, mem.NewHierarchy(o.RC.Mem, 1), stream())
		stepNs += timed("pipeline.Core.Step", func() {
			for !core.Done() && core.Cycle() < o.RC.MaxCycles {
				core.Step()
			}
		})
		stepCycles += int64(core.Cycle())

		var accesses int64
		memNs += timed("mem.Hierarchy.Access", func() { accesses = replayMemory(o.RC.Mem, stream()) })
		memAccesses += accesses
		memInsts += int64(window)

		us := unsync.NewPair(o.RC.Core, o.RC.Mem, o.RC.UnSync, stream(), stream())
		usNs += timed("core.Pair.Step", func() {
			for !us.Done() && us.Cycle() < o.RC.MaxCycles {
				us.Step()
			}
		})
		usCycles += int64(us.Cycle())

		re := reunion.NewPair(o.RC.Core, o.RC.Mem, o.RC.Reunion, stream(), stream())
		reNs += timed("reunion.Pair.Step", func() {
			for !re.Done() && re.Cycle() < o.RC.MaxCycles {
				re.Step()
			}
		})
		reCycles += int64(re.Cycle())
	}
	m.set("trace.materialize_s", "s", float64(matNs)/1e9)
	m.set("trace.replay_ns_per_inst", "ns", float64(replayNs)/float64(replayed))
	m.set("pipeline.step_ns_per_cycle", "ns", float64(stepNs)/float64(stepCycles))
	m.set("mem.access_ns", "ns", float64(memNs)/float64(memAccesses))
	m.set("mem.accesses_per_kinst", "count", float64(memAccesses)/(float64(memInsts)/1000))
	m.set("core.pair_step_ns_per_cycle", "ns", float64(usNs)/float64(usCycles))
	m.set("reunion.pair_step_ns_per_cycle", "ns", float64(reNs)/float64(reCycles))
}

// replayMemory replays a stream's own address stream into a fresh
// one-core hierarchy — a load or store per memory record and an
// instruction fetch per new I-cache line — and returns the number of
// accesses made. One simulated cycle passes per record.
func replayMemory(cfg mem.Config, st trace.Stream) int64 {
	h := mem.NewHierarchy(cfg, 1)
	line := uint64(cfg.L1I.LineBytes)
	var n int64
	lastLine := ^uint64(0)
	var now uint64
	for r, ok := st.Next(); ok; r, ok = st.Next() {
		now++
		if l := r.PC / line; l != lastLine {
			lastLine = l
			h.FetchAccess(0, now, r.PC)
			n++
		}
		switch {
		case r.IsStore():
			h.StoreAccess(0, now, r.Addr)
			n++
		case r.IsLoad():
			h.LoadAccess(0, now, r.Addr)
			n++
		}
	}
	return n
}
