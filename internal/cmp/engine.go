package cmp

import (
	"context"
	"fmt"

	unsync "github.com/cmlasu/unsync/internal/core"
	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/mem"
	"github.com/cmlasu/unsync/internal/pipeline"
	"github.com/cmlasu/unsync/internal/reunion"
	"github.com/cmlasu/unsync/internal/tmr"
	"github.com/cmlasu/unsync/internal/trace"
)

// Machine is one runnable redundancy organization: a baseline core, an
// UnSync or Reunion pair, a TMR triple, or any future scheme. Drive is
// the only loop that advances a Machine through the paper's
// measurement discipline; implementations supply the per-cycle step,
// the skip over quiet cycles and the bookkeeping hooks.
type Machine interface {
	// Step advances the machine by one cycle.
	Step()
	// Cycle returns the machine's cycle counter.
	Cycle() uint64
	// NextEvent returns the earliest cycle ≥ Cycle() at which Step
	// could do more than quiet bookkeeping: a quiet cycle only repeats
	// the previous cycle's stall counters and occupancy samples, and
	// commits nothing. Returning Cycle() means this cycle is not
	// quiet. A bound that is too early is always exact (the engine
	// steps a quiet cycle); one that is too late is a bug.
	NextEvent() uint64
	// Skip charges the cycles [Cycle(), to) exactly as that many Step
	// calls would. Drive calls it only with to ≤ NextEvent().
	Skip(to uint64)
	// Done reports whether every replica finished and all scheme
	// buffers drained.
	Done() bool
	// ResetStats clears statistics after warmup.
	ResetStats()
	// Committed returns the committed-instruction clock: the MINIMUM
	// over all replicas. Warmup gating and fault-arrival sampling both
	// read this one clock (the engine's single warmup rule).
	Committed() uint64
	// Collect fills the measurement-window result (IPC, cycles,
	// instructions, core stats, scheme-specific stats).
	Collect(*Result)
}

// Injector is the fault-injection surface of a Machine. A scheme
// translates a strike into its own detection/recovery mechanism:
// UnSync schedules an EIH pair recovery, Reunion corrupts the
// in-flight fingerprint window, TMR schedules a masked single-core
// resynchronization. Machines without the interface (the unprotected
// baseline) reject injected runs.
type Injector interface {
	// Replicas returns how many cores a strike can hit.
	Replicas() int
	// InjectError models a strike on the given core at the given cycle.
	InjectError(cycle uint64, core int)
}

// FaultPlan configures the Poisson soft-error process of a run. The
// zero value injects nothing.
type FaultPlan struct {
	SER  fault.SER
	Seed uint64
}

// active reports whether the plan injects any errors.
func (fp FaultPlan) active() bool { return fp.SER.PerInst > 0 }

// Drive runs the canonical measurement discipline on m — THE one
// warmup/measure/inject loop of the repository:
//
//  1. warm up until the committed-instruction clock (min across
//     replicas) reaches rc.WarmupInsts;
//  2. reset statistics;
//  3. run to completion within rc.MaxCycles.
//
// Under an active FaultPlan, error arrivals are sampled per committed
// instruction on the same min-replica clock (continuing across the
// statistics reset) and delivered through the machine's Injector
// surface.
//
// Both phases skip ahead before each step: the machine jumps over its
// quiet cycles (Machine.NextEvent) up to rc.MaxCycles, so the results,
// the injection clock and the cycle at which ErrCycleBudget fires are
// exactly those of stepping every cycle. A skipped cycle commits
// nothing, so no fault arrival falls inside one.
func Drive(m Machine, rc RunConfig, plan FaultPlan) error {
	return DriveContext(context.Background(), m, rc, plan)
}

// ctxQuantum is the cancellation check interval of DriveContext, in
// engine iterations: one iteration is a skip over quiet cycles, if
// any, and one step. A cancelled context stops the engine within this
// many iterations; between checks the hot loop pays nothing for
// cancellation.
const ctxQuantum = 4096

// ctxErr returns the context's cancellation cause, or nil — a cheap
// non-blocking check for the engine's hot loop.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	default:
		return nil
	}
}

// DriveContext is Drive under a context: cancelling ctx abandons the
// run within one quantum (ctxQuantum engine iterations, each a skip
// and a step) and returns the cancellation cause. Cancellation does
// not corrupt m — it simply stops advancing — but a cancelled run's
// statistics cover an arbitrary prefix of the window and must not be
// Collected as a measurement.
func DriveContext(ctx context.Context, m Machine, rc RunConfig, plan FaultPlan) error {
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
	if err := ctxErr(ctx); err != nil {
		return err
	}
	sinceCheck := 0
	step := func() {
		if to := min(m.NextEvent(), rc.MaxCycles); to > m.Cycle() {
			m.Skip(to)
			if to == rc.MaxCycles {
				return
			}
		}
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
		if sinceCheck++; sinceCheck >= ctxQuantum {
			sinceCheck = 0
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		step()
	}
	warmupBase = m.Committed()
	m.ResetStats()
	for !m.Done() {
		if m.Cycle() >= rc.MaxCycles {
			return pipeline.ErrCycleBudget
		}
		if sinceCheck++; sinceCheck >= ctxQuantum {
			sinceCheck = 0
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		step()
	}
	return nil
}

// Builder constructs a fresh Machine for one run of the profile under
// the configuration.
type Builder func(rc RunConfig, prof trace.Profile) (Machine, error)

// Schemes returns the runnable scheme names, sorted.
func Schemes() []Scheme {
	return []Scheme{Baseline, Reunion, TMR, UnSync}
}

// builderFor returns a scheme's builder, false for an unknown name.
func builderFor(s Scheme) (Builder, bool) {
	switch s {
	case Baseline:
		return buildBaseline, true
	case UnSync:
		return buildUnSync, true
	case Reunion:
		return buildReunion, true
	case TMR:
		return buildTMR, true
	}
	return nil, false
}

// Run executes the named profile on the selected scheme, error-free.
func Run(s Scheme, rc RunConfig, prof trace.Profile) (Result, error) {
	return RunInjectedContext(context.Background(), s, rc, prof, FaultPlan{})
}

// RunContext is Run under a context: cancelling ctx abandons the run
// within one quantum of engine iterations and returns the cancellation
// cause.
func RunContext(ctx context.Context, s Scheme, rc RunConfig, prof trace.Profile) (Result, error) {
	return RunInjectedContext(ctx, s, rc, prof, FaultPlan{})
}

// RunInjected executes the profile on the selected scheme under the
// fault plan: build the machine from the registry, Drive it through
// the measurement discipline, and collect the windowed result.
func RunInjected(s Scheme, rc RunConfig, prof trace.Profile, plan FaultPlan) (Result, error) {
	return RunInjectedContext(context.Background(), s, rc, prof, plan)
}

// RunInjectedContext is RunInjected under a context (see DriveContext
// for the cancellation contract).
func RunInjectedContext(ctx context.Context, s Scheme, rc RunConfig, prof trace.Profile, plan FaultPlan) (Result, error) {
	if err := validateRun(&rc, &prof); err != nil {
		return Result{}, err
	}
	b, ok := builderFor(s)
	if !ok {
		return Result{}, fmt.Errorf("cmp: unknown scheme %q (schemes: %v)", s, Schemes())
	}
	m, err := b(rc, prof)
	if err != nil {
		return Result{}, fmt.Errorf("cmp: build %s machine: %w", s, err)
	}
	if err := DriveContext(ctx, m, rc, plan); err != nil {
		return Result{}, err
	}
	res := Result{Scheme: s, Benchmark: prof.Name}
	m.Collect(&res)
	return res, nil
}

// ---- event collection ----

// hierEvents exports the memory-side counters of one core slot (plus
// the shared L2) under the event taxonomy. Multi-replica machines
// report the first replica's private levels — replicas run the same
// stream, so the first core is representative, and it matches the
// Result.Core convention.
func hierEvents(h *mem.Hierarchy, core int) events.Counts {
	cs := h.Cores[core]
	return events.Counts{
		events.L1DMiss:        cs.L1D.Stats.Misses,
		events.L1DReplacement: cs.L1D.Stats.Fills,
		events.L1DMSHRStall:   cs.L1D.Stats.MSHRStalls,
		events.L1IMiss:        cs.L1I.Stats.Misses,
		events.L1IReplacement: cs.L1I.Stats.Fills,
		events.L2Miss:         h.L2.Stats.Misses,
		events.L2Replacement:  h.L2.Stats.Fills,
		events.DTLBMiss:       cs.DTLB.Misses,
		events.ITLBMiss:       cs.ITLB.Misses,
		events.PrefetchIssued: cs.Prefetches,
	}
}

// collectEvents assembles a Result's event map: the core's pipeline
// counters (topdown buckets included), the memory hierarchy's, and the
// scheme's own (nil for the baseline). Every scheme reports
// through this one helper so the taxonomy stays uniform.
func collectEvents(core *pipeline.Core, h *mem.Hierarchy, scheme events.Counts) events.Counts {
	ev := core.Events()
	ev.Merge(hierEvents(h, core.ID))
	ev.Merge(scheme)
	return ev
}

// ---- built-in machines ----

// baselineMachine wraps a single unprotected core. It implements
// Machine but not Injector: with no redundancy there is no recovery
// mechanism to exercise.
type baselineMachine struct{ *pipeline.Core }

func buildBaseline(rc RunConfig, prof trace.Profile) (Machine, error) {
	h := mem.NewHierarchy(baselineMemConfig(rc.Mem), 1)
	return baselineMachine{pipeline.NewCore(rc.Core, 0, h, rc.Stream(prof))}, nil
}

func (m baselineMachine) Committed() uint64 { return m.Core.Stats.Insts }

// ResetStats also resets the core's memory hierarchy so baseline event
// counts cover the measurement window only, mirroring what the
// redundant pairs and triple do in their own ResetStats.
func (m baselineMachine) ResetStats() {
	m.Core.ResetStats()
	m.Core.Hier.ResetStats()
}

func (m baselineMachine) Collect(r *Result) {
	r.IPC = m.Core.Stats.IPC()
	r.Cycles = m.Core.Stats.Cycles
	r.Insts = m.Core.Stats.Insts
	r.Core = m.Core.Stats
	r.Events = collectEvents(m.Core, m.Core.Hier, nil)
}

// unsyncMachine adapts an UnSync pair (Step/Cycle/Done/ResetStats/
// Committed/Replicas/InjectError come from the pair itself).
type unsyncMachine struct{ *unsync.Pair }

func buildUnSync(rc RunConfig, prof trace.Profile) (Machine, error) {
	p := unsync.NewPair(rc.Core, rc.Mem, rc.UnSync, rc.Stream(prof), rc.Stream(prof))
	return unsyncMachine{p}, nil
}

func (m unsyncMachine) Collect(r *Result) {
	st := m.Pair.Stats
	r.IPC = m.A.Stats.IPC()
	r.Cycles = m.A.Stats.Cycles
	r.Insts = m.A.Stats.Insts
	r.Core = m.A.Stats
	r.Events = collectEvents(m.A, m.Pair.Hier, m.Pair.Events())
	r.UnSyncStats = &st
}

// reunionMachine adapts a Reunion pair.
type reunionMachine struct{ *reunion.Pair }

func buildReunion(rc RunConfig, prof trace.Profile) (Machine, error) {
	p := reunion.NewPair(rc.Core, rc.Mem, rc.Reunion, rc.Stream(prof), rc.Stream(prof))
	return reunionMachine{p}, nil
}

func (m reunionMachine) Collect(r *Result) {
	st := m.Pair.Stats
	r.IPC = m.A.Stats.IPC()
	r.Cycles = m.A.Stats.Cycles
	r.Insts = m.A.Stats.Insts
	r.Core = m.A.Stats
	r.Events = collectEvents(m.A, m.Pair.Hier, m.Pair.Events())
	r.ReunionStats = &st
}

// tmrMachine adapts a TMR triple.
type tmrMachine struct{ *tmr.Triple }

func buildTMR(rc RunConfig, prof trace.Profile) (Machine, error) {
	var streams [3]trace.Stream
	for i := range streams {
		streams[i] = rc.Stream(prof)
	}
	return tmrMachine{tmr.NewTriple(rc.Core, rc.Mem, rc.TMR, streams)}, nil
}

func (m tmrMachine) Collect(r *Result) {
	st := m.Triple.Stats
	r.IPC = m.Triple.IPC() // quorum pace: median core over the window
	r.Cycles = m.Cores[0].Stats.Cycles
	r.Insts = m.Cores[0].Stats.Insts
	r.Core = m.Cores[0].Stats
	r.Events = collectEvents(m.Cores[0], m.Triple.Hier, m.Triple.Events())
	r.TMRStats = &st
}
