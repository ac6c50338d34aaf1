// Package tmr implements the §VIII future-work extension the paper's
// architecture framework allows: a triple-modular-redundant (TMR)
// variant of the UnSync organization with "varied degrees of
// redundancy/resilience trade-offs".
//
// Three identical cores run the same thread. The Communication Buffer
// pairing of the dual design becomes majority voting: a store drains to
// the ECC L2 once at least two cores agree on the head entry. A core
// whose head disagrees — or whose detection hardware raises an error —
// is resynchronized from the majority *without stalling the other two*:
// errors are masked rather than recovered, trading a third core's area
// and power for the elimination of the pair-wide recovery stall.
package tmr

import (
	"fmt"

	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/isa"
	"github.com/cmlasu/unsync/internal/mem"
	"github.com/cmlasu/unsync/internal/pipeline"
	"github.com/cmlasu/unsync/internal/stats"
	"github.com/cmlasu/unsync/internal/trace"
)

// Config holds the TMR parameters.
type Config struct {
	// CBEntries is the per-core Communication Buffer capacity.
	CBEntries int
	// ResyncBase/PerReg/PerLine price the single-core resynchronization
	// (architectural state + L1 copy from a majority core); only the
	// struck core freezes.
	ResyncBase    uint64
	ResyncPerReg  uint64
	ResyncPerLine uint64

	// DetectLatency is the cycles from a strike to the resync trigger.
	// The triple reuses the UnSync core's local detection (parity on
	// storage, DMR on per-cycle elements); zero derives the parity
	// latency from fault.DetectionLatency (2 cycles).
	DetectLatency uint64
}

// DefaultConfig mirrors the UnSync recovery cost model with the dual
// design's 2 KB buffer.
func DefaultConfig() Config {
	return Config{
		CBEntries:     170,
		ResyncBase:    100,
		ResyncPerReg:  2,
		ResyncPerLine: 8,
		DetectLatency: fault.DetectionLatency(fault.DetectParity, 0, 0),
	}
}

// DetectionLatency returns the effective strike-to-detection latency:
// the configured value, or the parity latency when unset.
func (c Config) DetectionLatency() uint64 {
	if c.DetectLatency > 0 {
		return c.DetectLatency
	}
	return fault.DetectionLatency(fault.DetectParity, 0, 0)
}

// Validate checks configuration invariants.
func (c *Config) Validate() error {
	if c.CBEntries < 1 {
		return fmt.Errorf("tmr: CBEntries %d < 1", c.CBEntries)
	}
	return nil
}

type cbEntry struct {
	seq  uint64
	addr uint64
}

// TripleStats aggregates the triple's counters.
type TripleStats struct {
	Drained      uint64 // majority-voted entries written once to L2
	Maskings     uint64 // divergent heads outvoted and discarded
	Resyncs      uint64 // single-core resynchronizations performed
	ResyncCycles uint64

	CBFullStall [3]uint64
	CBOcc       [3]*stats.Occupancy
}

// Triple is one TMR redundant core-triple.
type Triple struct {
	Cfg   Config
	Cores [3]*pipeline.Core
	Hier  *mem.Hierarchy
	Stats TripleStats

	cb          [3][]cbEntry
	ids         [3]int
	cycle       uint64
	lastDrained int64 // seq of the last store drained by quorum (-1: none)

	pendingResync []resyncEvent
}

type resyncEvent struct {
	at   uint64
	core int
}

// MemConfig matches the UnSync requirements (write-through parity L1).
func MemConfig(memCfg mem.Config) mem.Config {
	memCfg.L1D.Policy = mem.WriteThrough
	memCfg.L1D.Protect = mem.ProtParity
	memCfg.L1I.Protect = mem.ProtParity
	memCfg.L2.Protect = mem.ProtSECDED
	return memCfg
}

// NewTriple builds a TMR triple over its own three-core hierarchy. The
// three streams must produce identical records.
func NewTriple(coreCfg pipeline.Config, memCfg mem.Config, cfg Config, streams [3]trace.Stream) *Triple {
	if err := cfg.Validate(); err != nil {
		//unsync:allow-panic configs are validated at the public API boundary; an invalid one here is a programming error
		panic(err)
	}
	h := mem.NewHierarchy(MemConfig(memCfg), 3)
	t := &Triple{Cfg: cfg, Hier: h, ids: [3]int{0, 1, 2}, lastDrained: -1}
	for i := 0; i < 3; i++ {
		t.Cores[i] = pipeline.NewCore(coreCfg, i, h, streams[i])
		t.Stats.CBOcc[i] = stats.NewOccupancy(cfg.CBEntries)
		t.attach(i, t.Cores[i])
	}
	return t
}

func (t *Triple) attach(side int, c *pipeline.Core) {
	c.CommitGate = func(rec trace.Record, cycle uint64) bool {
		if rec.IsStore() && len(t.cb[side]) >= t.Cfg.CBEntries {
			t.Stats.CBFullStall[side]++
			return false
		}
		return true
	}
	c.OnCommit = func(rec trace.Record, cycle uint64) {
		if rec.IsStore() {
			t.cb[side] = append(t.cb[side], cbEntry{seq: rec.Seq, addr: rec.Addr})
		}
	}
	c.DrainEmpty = func(cycle uint64) bool { return len(t.cb[side]) == 0 }
}

// Cycle returns the triple's cycle counter.
func (t *Triple) Cycle() uint64 { return t.cycle }

// CBLen returns one core's Communication Buffer occupancy.
func (t *Triple) CBLen(side int) int { return len(t.cb[side]) }

// Step advances the triple by one cycle.
func (t *Triple) Step() {
	t.fireResyncs()
	t.drain()
	for _, c := range t.Cores {
		c.Step()
	}
	for i := range t.cb {
		t.Stats.CBOcc[i].Sample(len(t.cb[i]))
	}
	t.cycle++
}

// NextEvent returns the earliest cycle, at or after Cycle(), at which
// Step could do more than quiet bookkeeping: the earliest of the
// cores' bounds and any pending resync. A due catch-up pop makes the
// current cycle busy; so do two or more present CB heads with the bus
// free, and with the bus busy they bound the skip at its free cycle.
func (t *Triple) NextEvent() uint64 {
	next := t.Cores[0].NextEvent()
	if next == t.cycle {
		return next
	}
	next = min(next, t.Cores[1].NextEvent(), t.Cores[2].NextEvent())
	for _, ev := range t.pendingResync {
		next = min(next, ev.at)
	}
	present := 0
	for i := range t.cb {
		if len(t.cb[i]) > 0 {
			if int64(t.cb[i][0].seq) <= t.lastDrained {
				return t.cycle
			}
			present++
		}
	}
	if present >= 2 {
		next = min(next, t.Hier.Bus.BusyUntil())
	}
	return max(next, t.cycle)
}

// Skip advances the triple to cycle to, charging the cycles
// [Cycle(), to) exactly as that many Step calls would. The caller
// guarantees to ≤ NextEvent().
func (t *Triple) Skip(to uint64) {
	if to <= t.cycle {
		return
	}
	n := to - t.cycle
	for _, c := range t.Cores {
		c.Skip(to)
	}
	for i := range t.cb {
		t.Stats.CBOcc[i].SampleN(len(t.cb[i]), n)
	}
	t.cycle = to
}

// drain performs majority voting on the CB heads: with at least two
// matching heads present and the bus free, one copy drains to the L2.
// A present-but-divergent minority head is discarded (masked); the
// owning core is scheduled for resynchronization.
func (t *Triple) drain() {
	// Catch-up pops: a lagging core re-produces entries the quorum
	// already drained; they leave its buffer without a vote.
	for i := range t.cb {
		for len(t.cb[i]) > 0 && int64(t.cb[i][0].seq) <= t.lastDrained {
			t.cb[i] = t.cb[i][1:]
		}
	}
	if !t.Hier.Bus.FreeAt(t.cycle) {
		return
	}
	var seqs [3]uint64
	var have [3]bool
	present := 0
	for i := range t.cb {
		if len(t.cb[i]) > 0 {
			seqs[i], have[i] = t.cb[i][0].seq, true
			present++
		}
	}
	if present < 2 {
		return
	}
	// Majority seq among present heads.
	maj, majCount := uint64(0), 0
	for i := 0; i < 3; i++ {
		if !have[i] {
			continue
		}
		n := 0
		for j := 0; j < 3; j++ {
			if have[j] && seqs[j] == seqs[i] {
				n++
			}
		}
		if n > majCount {
			maj, majCount = seqs[i], n
		}
	}
	if majCount < 2 {
		// Two present heads that disagree: wait for the third opinion
		// unless all three are present (then there is still no quorum,
		// which identical streams cannot produce; treat as divergence
		// of the highest-seq head to make progress).
		return
	}
	var addr uint64
	for i := 0; i < 3; i++ {
		if !have[i] {
			continue
		}
		if seqs[i] == maj {
			addr = t.cb[i][0].addr
			t.cb[i] = t.cb[i][1:]
		} else if present == 3 {
			// Outvoted with all three opinions on the table: a genuine
			// divergence. Discard the entry and resynchronize the
			// minority core; the quorum never stalls (masking).
			t.cb[i] = t.cb[i][1:]
			t.Stats.Maskings++
			t.ScheduleResync(t.cycle+1, i)
		}
	}
	t.Hier.WriteLineToL2(t.cycle, addr)
	t.Stats.Drained++
	t.lastDrained = int64(maj)
}

// ScheduleResync schedules a single-core resynchronization (an error
// was detected on the core, or it was outvoted).
func (t *Triple) ScheduleResync(at uint64, core int) {
	if core < 0 || core > 2 {
		//unsync:allow-panic invariant bounds check: a TMR triple has exactly cores 0..2
		panic("tmr: bad core index")
	}
	t.pendingResync = append(t.pendingResync, resyncEvent{at: at, core: core})
}

func (t *Triple) fireResyncs() {
	kept := t.pendingResync[:0]
	for _, ev := range t.pendingResync {
		if ev.at > t.cycle {
			kept = append(kept, ev)
			continue
		}
		t.resync(ev.core)
	}
	t.pendingResync = kept
}

// resync freezes ONLY the erroneous core while it is rebuilt from a
// majority core's state — the other two keep running, which is the TMR
// trade-off: masking instead of a pair-wide stall.
func (t *Triple) resync(core int) {
	donor := (core + 1) % 3
	lines := uint64(t.Hier.Cores[t.ids[donor]].L1D.ValidLines())
	cost := t.Cfg.ResyncBase + uint64(2*isa.NumRegs+1)*t.Cfg.ResyncPerReg + lines*t.Cfg.ResyncPerLine

	t.Cores[core].Restart(t.Cores[donor].Position())
	t.Cores[core].FreezeUntil(t.cycle + cost)
	t.Hier.Cores[t.ids[core]].L1D.InvalidateAll()
	t.cb[core] = append(t.cb[core][:0], t.cb[donor]...)

	t.Stats.Resyncs++
	t.Stats.ResyncCycles += cost
}

// Done reports whether every core finished and the buffers are empty.
func (t *Triple) Done() bool {
	for _, c := range t.Cores {
		if !c.Done() {
			return false
		}
	}
	for i := range t.cb {
		if len(t.cb[i]) != 0 {
			return false
		}
	}
	return true
}

// Run steps to completion or maxCycles.
func (t *Triple) Run(maxCycles uint64) error {
	for !t.Done() {
		if t.cycle >= maxCycles {
			return pipeline.ErrCycleBudget
		}
		t.Step()
	}
	return nil
}

// ResetStats clears statistics (triple, cores and the triple's memory
// hierarchy) after warmup, so every event counter covers only the
// measurement window.
func (t *Triple) ResetStats() {
	for _, c := range t.Cores {
		c.ResetStats()
	}
	t.Hier.ResetStats()
	s := TripleStats{}
	for i := range s.CBOcc {
		s.CBOcc[i] = stats.NewOccupancy(t.Cfg.CBEntries)
	}
	t.Stats = s
}

// Events returns the triple-level event counts of the TMR scheme under
// the repository-wide taxonomy (internal/events): majority voting,
// masking and resynchronization costs. Per-replica stall counters are
// summed; core- and memory-side events are merged in by the
// measurement engine (cmp).
func (t *Triple) Events() events.Counts {
	return events.Counts{
		events.CBFullStall:  t.Stats.CBFullStall[0] + t.Stats.CBFullStall[1] + t.Stats.CBFullStall[2],
		events.CBDrained:    t.Stats.Drained,
		events.TMRMasked:    t.Stats.Maskings,
		events.ResyncCount:  t.Stats.Resyncs,
		events.ResyncCycles: t.Stats.ResyncCycles,
	}
}

// Committed returns the triple's committed-instruction clock: the
// minimum over the three replicas (the engine's one warmup rule — see
// cmp.Drive).
func (t *Triple) Committed() uint64 {
	return min3(t.Cores[0].Stats.Insts, t.Cores[1].Stats.Insts, t.Cores[2].Stats.Insts)
}

// Replicas returns the number of cores a soft error can strike.
func (t *Triple) Replicas() int { return 3 }

// InjectError models a soft-error strike on the given core: the local
// detection hardware raises the resync trigger after the detection
// latency, and the quorum masks the error while the struck core is
// rebuilt.
func (t *Triple) InjectError(cycle uint64, core int) {
	t.ScheduleResync(cycle+t.Cfg.DetectionLatency(), core)
}

// IPC returns the triple's architectural throughput at the quorum's
// pace: the median core's committed instructions per statistics-window
// cycle. The median is the right numerator because majority voting
// drains a store once two cores have produced it — the slowest core
// never gates the quorum (it catches up or is resynchronized), and the
// fastest core's lead is not yet architecturally visible. The
// denominator is the per-core statistics cycle counter, so the method
// reports the measurement window after a ResetStats, not the whole run.
func (t *Triple) IPC() float64 {
	cycles := t.Cores[0].Stats.Cycles
	if cycles == 0 {
		return 0
	}
	a, b, c := t.Cores[0].Stats.Insts, t.Cores[1].Stats.Insts, t.Cores[2].Stats.Insts
	med := a + b + c - min3(a, b, c) - max3(a, b, c)
	return float64(med) / float64(cycles)
}

func min3(a, b, c uint64) uint64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

func max3(a, b, c uint64) uint64 {
	m := a
	if b > m {
		m = b
	}
	if c > m {
		m = c
	}
	return m
}
