// Package core implements the paper's primary contribution: the UnSync
// redundant core-pair architecture.
//
// Two identical cores execute the same thread with no lock-stepping and
// no output comparison. Every store committed by a core is written
// through its L1 and deposited into a per-core, non-coalescing
// Communication Buffer (CB). The pair's CBs are drained in matched
// order: an entry is written (once) to the shared ECC-protected L2 only
// when both cores have produced it and the L1↔L2 bus is free. A full CB
// back-pressures that core's commit stage — the resource-occupancy
// bottleneck Figure 6 studies.
//
// Error detection is purely local (parity on storage structures, DMR on
// per-cycle sequential elements; see internal/fault); on detection the
// Error Interrupt Handler (EIH) stalls both cores, the architectural
// state and L1 contents of the error-free core are copied over the
// erroneous core through the shared L2, and both cores resume from the
// error-free core's PC — "always forward execution", no re-execution.
package core

import (
	"fmt"

	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/isa"
	"github.com/cmlasu/unsync/internal/mem"
	"github.com/cmlasu/unsync/internal/pipeline"
	"github.com/cmlasu/unsync/internal/ring"
	"github.com/cmlasu/unsync/internal/stats"
	"github.com/cmlasu/unsync/internal/trace"
)

// Config holds the UnSync-specific parameters.
type Config struct {
	// CBEntries is the per-core Communication Buffer capacity. The
	// paper's synthesized design uses 10 entries; Figure 6 sweeps the
	// size up to 4 KB.
	CBEntries int
	// CBEntryBytes is the size of one CB entry (address + data + tag);
	// used to express CB capacity in bytes for Figure 6's axis.
	CBEntryBytes int
	// DrainPerCycle bounds how many matched CB entries can be written
	// to the L2 per cycle when the bus is free.
	DrainPerCycle int

	// Recovery cost model ("always forward execution", §III-A(c)).
	// RecoveryBase covers error signalling through the EIH, stalling
	// both pipelines and flushing the erroneous one. RecoveryPerReg is
	// the per-architectural-register copy cost through the shared L2;
	// RecoveryPerLine the per-valid-L1-line copy cost.
	RecoveryBase    uint64
	RecoveryPerReg  uint64
	RecoveryPerLine uint64

	// DetectLatency is the cycles from a strike to the EIH's RECOVERY
	// signal. UnSync detects locally — parity on storage structures,
	// DMR on per-cycle sequential elements (§III-B1) — so the latency
	// is a property of this scheme's own detection hardware, not of
	// any rival scheme's parameters. Zero derives the parity latency
	// from fault.DetectionLatency (2 cycles: verified on next access).
	DetectLatency uint64
}

// DefaultConfig returns the performance-evaluation design point: a
// 2 KB Communication Buffer (Figure 6's bottleneck-free size; the
// hardware synthesis of Table II prices the minimal 10-entry buffer)
// and the recovery cost model.
func DefaultConfig() Config {
	return Config{
		CBEntries:       170,
		CBEntryBytes:    12,
		DrainPerCycle:   1,
		RecoveryBase:    100,
		RecoveryPerReg:  2,
		RecoveryPerLine: 8,
		DetectLatency:   fault.DetectionLatency(fault.DetectParity, 0, 0),
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
		return fmt.Errorf("core: CBEntries %d < 1", c.CBEntries)
	}
	if c.CBEntryBytes < 1 {
		return fmt.Errorf("core: CBEntryBytes %d < 1", c.CBEntryBytes)
	}
	if c.DrainPerCycle < 1 {
		return fmt.Errorf("core: DrainPerCycle %d < 1", c.DrainPerCycle)
	}
	return nil
}

// CBBytes returns the CB capacity in bytes.
func (c Config) CBBytes() int { return c.CBEntries * c.CBEntryBytes }

// cbEntry is one non-coalescing Communication Buffer entry: a committed
// store tagged with its dynamic instruction number (the paper tags with
// the instruction address; the dynamic sequence number is the same
// identifier made unique).
type cbEntry struct {
	seq  uint64
	addr uint64
}

// PairStats aggregates pair-level counters.
type PairStats struct {
	Drained     uint64 // CB entries written (once) to L2
	Divergences uint64 // head-of-CB tag mismatches (escaped errors)

	CBFullStall [2]uint64 // commit-block cycles per core due to CB full

	Recoveries     uint64
	RecoveryCycles uint64

	CBOcc [2]*stats.Occupancy
}

// Pair is one UnSync redundant core-pair.
type Pair struct {
	Cfg   Config
	A, B  *pipeline.Core
	Hier  *mem.Hierarchy
	Stats PairStats

	// cb holds the two Communication Buffers. Occupancy is bounded by
	// Cfg.CBEntries (the commit gate refuses stores into a full CB), so
	// the preallocated rings never grow on the cycle loop.
	cb    [2]*ring.Buffer[cbEntry]
	ids   [2]int // hierarchy core slots of A and B
	cycle uint64

	pendingRecovery []recoveryEvent
}

type recoveryEvent struct {
	at      uint64
	errCore int
}

// MemConfig adapts a hierarchy configuration to UnSync's requirements:
// a write-through L1 (§III-C1) with parity, under the ECC L2.
func MemConfig(memCfg mem.Config) mem.Config {
	memCfg.L1D.Policy = mem.WriteThrough
	memCfg.L1D.Protect = mem.ProtParity
	memCfg.L1I.Protect = mem.ProtParity
	memCfg.L2.Protect = mem.ProtSECDED
	return memCfg
}

// NewPair builds an UnSync pair over its own two-core hierarchy.
// streamA and streamB must produce identical records (use two
// generators with the same profile, or two SliceStreams over the same
// slice).
func NewPair(coreCfg pipeline.Config, memCfg mem.Config, cfg Config, streamA, streamB trace.Stream) *Pair {
	h := mem.NewHierarchy(MemConfig(memCfg), 2)
	return NewPairOn(coreCfg, cfg, h, 0, 1, streamA, streamB)
}

// NewPairOn builds an UnSync pair on an existing hierarchy, occupying
// core slots idA and idB (multi-pair chips share one hierarchy).
func NewPairOn(coreCfg pipeline.Config, cfg Config, h *mem.Hierarchy, idA, idB int, streamA, streamB trace.Stream) *Pair {
	if err := cfg.Validate(); err != nil {
		//unsync:allow-panic configs are validated at the public API boundary; an invalid one here is a programming error
		panic(err)
	}
	p := &Pair{Cfg: cfg, Hier: h, ids: [2]int{idA, idB}}
	p.cb[0] = ring.New[cbEntry](cfg.CBEntries)
	p.cb[1] = ring.New[cbEntry](cfg.CBEntries)
	p.A = pipeline.NewCore(coreCfg, idA, h, streamA)
	p.B = pipeline.NewCore(coreCfg, idB, h, streamB)
	p.Stats.CBOcc[0] = stats.NewOccupancy(cfg.CBEntries)
	p.Stats.CBOcc[1] = stats.NewOccupancy(cfg.CBEntries)
	p.attach(0, p.A)
	p.attach(1, p.B)
	return p
}

func (p *Pair) attach(side int, c *pipeline.Core) {
	c.CommitGate = func(rec trace.Record, cycle uint64) bool {
		if rec.IsStore() && p.cb[side].Len() >= p.Cfg.CBEntries {
			p.Stats.CBFullStall[side]++
			return false
		}
		return true
	}
	c.OnCommit = func(rec trace.Record, cycle uint64) {
		if rec.IsStore() {
			p.cb[side].PushBack(cbEntry{seq: rec.Seq, addr: rec.Addr})
		}
	}
	c.DrainEmpty = func(cycle uint64) bool {
		return p.cb[side].Empty()
	}
}

// Cycle returns the pair's cycle counter.
func (p *Pair) Cycle() uint64 { return p.cycle }

// CBLen returns the occupancy of one core's Communication Buffer.
func (p *Pair) CBLen(side int) int { return p.cb[side].Len() }

// Step advances the pair by one cycle: recoveries fire, the CB drains,
// then both cores step.
func (p *Pair) Step() {
	p.fireRecoveries()
	p.drain()
	p.A.Step()
	p.B.Step()
	p.Stats.CBOcc[0].Sample(p.cb[0].Len())
	p.Stats.CBOcc[1].Sample(p.cb[1].Len())
	p.cycle++
}

// NextEvent returns the earliest cycle, at or after Cycle(), at which
// Step could do more than quiet bookkeeping: the earlier of both
// cores' bounds, any pending recovery and, while both Communication
// Buffers hold entries, the cycle the bus frees for a drain.
func (p *Pair) NextEvent() uint64 {
	next := p.A.NextEvent()
	if next == p.cycle {
		return next
	}
	next = min(next, p.B.NextEvent())
	for _, ev := range p.pendingRecovery {
		next = min(next, ev.at)
	}
	if !p.cb[0].Empty() && !p.cb[1].Empty() {
		next = min(next, p.Hier.Bus.BusyUntil())
	}
	return max(next, p.cycle)
}

// Skip advances the pair to cycle to, charging the cycles [Cycle(), to)
// exactly as that many Step calls would. The caller guarantees
// to ≤ NextEvent().
func (p *Pair) Skip(to uint64) {
	if to <= p.cycle {
		return
	}
	n := to - p.cycle
	p.A.Skip(to)
	p.B.Skip(to)
	p.Stats.CBOcc[0].SampleN(p.cb[0].Len(), n)
	p.Stats.CBOcc[1].SampleN(p.cb[1].Len(), n)
	p.cycle = to
}

// drain writes matched CB entries to the shared L2. Following §III-A(a),
// an entry leaves the pair only when both cores have produced it ("has
// completed execution on both") and the L1↔L2 bus is free; exactly one
// copy is written.
func (p *Pair) drain() {
	for n := 0; n < p.Cfg.DrainPerCycle; n++ {
		if p.cb[0].Empty() || p.cb[1].Empty() {
			return
		}
		if !p.Hier.Bus.FreeAt(p.cycle) {
			return
		}
		a, b := p.cb[0].PopFront(), p.cb[1].PopFront()
		if a.seq != b.seq {
			// The tags should always match in an error-free run; a
			// mismatch is an escaped error (outside the ROEC).
			p.Stats.Divergences++
		}
		p.Hier.WriteLineToL2(p.cycle, a.addr)
		p.Stats.Drained++
	}
}

// Done reports whether both cores have drained their streams and the
// CBs are empty.
func (p *Pair) Done() bool {
	return p.A.Done() && p.B.Done() && p.cb[0].Empty() && p.cb[1].Empty()
}

// Run steps the pair to completion or until maxCycles.
func (p *Pair) Run(maxCycles uint64) error {
	for !p.Done() {
		if p.cycle >= maxCycles {
			return pipeline.ErrCycleBudget
		}
		p.Step()
	}
	return nil
}

// ResetStats clears all statistics (pair, cores and the pair's memory
// hierarchy) after a warmup phase, so every event counter covers only
// the measurement window.
func (p *Pair) ResetStats() {
	p.A.ResetStats()
	p.B.ResetStats()
	p.Hier.ResetStats()
	p.Stats = PairStats{
		CBOcc: [2]*stats.Occupancy{
			stats.NewOccupancy(p.Cfg.CBEntries),
			stats.NewOccupancy(p.Cfg.CBEntries),
		},
	}
}

// Events returns the pair-level event counts of the UnSync scheme
// under the repository-wide taxonomy (internal/events): Communication
// Buffer pressure, drain volume and EIH recovery costs. Per-replica
// stall counters are summed; core- and memory-side events are merged
// in by the measurement engine (cmp).
func (p *Pair) Events() events.Counts {
	return events.Counts{
		events.CBFullStall:    p.Stats.CBFullStall[0] + p.Stats.CBFullStall[1],
		events.CBDrained:      p.Stats.Drained,
		events.CBDivergence:   p.Stats.Divergences,
		events.RecoveryCount:  p.Stats.Recoveries,
		events.RecoveryCycles: p.Stats.RecoveryCycles,
	}
}

// IPC returns the pair's architectural throughput: committed
// instructions of the (redundant) thread per cycle. A pair that never
// stepped reports 0.
func (p *Pair) IPC() float64 {
	if p.cycle == 0 {
		return 0
	}
	insts := p.A.Stats.Insts
	if p.B.Stats.Insts < insts {
		insts = p.B.Stats.Insts
	}
	return float64(insts) / float64(p.cycle)
}

// Committed returns the pair's committed-instruction clock: the minimum
// over both replicas. Warmup gating and fault-arrival sampling both use
// this (the engine's one warmup rule — see cmp.Drive).
func (p *Pair) Committed() uint64 {
	if p.A.Stats.Insts < p.B.Stats.Insts {
		return p.A.Stats.Insts
	}
	return p.B.Stats.Insts
}

// Replicas returns the number of cores a soft error can strike.
func (p *Pair) Replicas() int { return 2 }

// InjectError models a soft-error strike on the given core at the given
// cycle: the local detection hardware (parity/DMR) raises the EIH after
// the scheme's own detection latency, scheduling a pair recovery.
func (p *Pair) InjectError(cycle uint64, core int) {
	p.ScheduleRecovery(cycle+p.Cfg.DetectionLatency(), core)
}

// ScheduleRecovery schedules an error recovery: an error was detected on
// errCore (0 or 1) and the EIH raises RECOVERY at cycle at.
func (p *Pair) ScheduleRecovery(at uint64, errCore int) {
	if errCore != 0 && errCore != 1 {
		//unsync:allow-panic invariant bounds check: a redundant pair has exactly cores 0 and 1
		panic("core: bad error core index")
	}
	p.pendingRecovery = append(p.pendingRecovery, recoveryEvent{at: at, errCore: errCore})
}

func (p *Pair) fireRecoveries() {
	kept := p.pendingRecovery[:0]
	for _, ev := range p.pendingRecovery {
		if ev.at > p.cycle {
			kept = append(kept, ev)
			continue
		}
		p.recover(ev.errCore)
	}
	p.pendingRecovery = kept
}

// recover models the always-forward-execution recovery of §III-A(c):
// both cores stop, the erroneous pipeline is flushed, the architectural
// state and L1 contents of the error-free core are copied through the
// shared L2, the erroneous core's CB is overwritten, and both cores
// resume from the error-free core's position. There is no re-execution;
// the cost is the stop-copy-resume window.
func (p *Pair) recover(errCore int) {
	good := 1 - errCore
	goodL1 := p.Hier.Cores[p.ids[good]].L1D
	lines := uint64(goodL1.ValidLines())
	cost := p.Cfg.RecoveryBase +
		uint64(2*isa.NumRegs+1)*p.Cfg.RecoveryPerReg + // both register files + PC
		lines*p.Cfg.RecoveryPerLine

	until := p.cycle + cost
	p.A.FreezeUntil(until)
	p.B.FreezeUntil(until)

	// The erroneous pipeline is flushed and the core resumes from the
	// error-free core's architectural position (copied PC): forwarded
	// if it was behind, re-tracing a few instructions if it was ahead.
	cores := [2]*pipeline.Core{p.A, p.B}
	cores[errCore].Restart(cores[good].Position())

	// The erroneous core's L1 is replaced by the error-free core's
	// content; modeling-wise the erroneous L1 is invalidated (clean
	// write-through lines are refetchable from the ECC L2) and its CB
	// is overwritten by the error-free core's entries.
	p.Hier.Cores[p.ids[errCore]].L1D.InvalidateAll()
	p.cb[errCore].CopyFrom(p.cb[good])

	p.Stats.Recoveries++
	p.Stats.RecoveryCycles += cost
}

// RecoveryCost returns the modeled cost of one recovery at the current
// instant, without performing it (used by the break-even analysis).
func (p *Pair) RecoveryCost() uint64 {
	lines := uint64(p.Hier.Cores[p.ids[0]].L1D.ValidLines())
	return p.Cfg.RecoveryBase + uint64(2*isa.NumRegs+1)*p.Cfg.RecoveryPerReg + lines*p.Cfg.RecoveryPerLine
}
