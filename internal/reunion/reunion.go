// Package reunion implements the comparison baseline: Reunion
// (Smolens et al., MICRO'06) as analyzed in §IV of the paper.
//
// Two loosely coupled cores run the same thread. Every committed
// instruction deposits its result into the CHECK Stage Buffer (CSB) and
// contributes to a CRC-16 fingerprint. A fingerprint closes every FI
// instructions (the fingerprint interval) and is exchanged with the
// partner core; the comparison takes CompareLatency cycles end to end.
// CSB entries are released only when their fingerprint has been
// verified, so a full CSB back-pressures commit and inflates ROB
// occupancy (Figure 5's mechanism). Serializing instructions (traps,
// memory barriers, atomics) must execute in a fingerprint of their own
// with every earlier fingerprint verified, and later instructions wait
// for the serializing fingerprint's verification — the synchronization
// cost Figure 4 measures.
package reunion

import (
	"fmt"

	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/mem"
	"github.com/cmlasu/unsync/internal/pipeline"
	"github.com/cmlasu/unsync/internal/reunion/crc"
	"github.com/cmlasu/unsync/internal/ring"
	"github.com/cmlasu/unsync/internal/stats"
	"github.com/cmlasu/unsync/internal/trace"
)

// Config holds the Reunion parameters.
type Config struct {
	// FI is the fingerprint interval in instructions (paper baseline:
	// 10, the minimum indicated by the Reunion authors).
	FI int
	// CompareLatency is the total time to generate, transfer and
	// compare a fingerprint between the cores (paper: minimum 6
	// cycles; Fig 5 sweeps 10→40).
	CompareLatency uint64
	// CSBEntries is the CHECK Stage Buffer capacity. Zero means derive
	// from FI with CSBForFI (17 entries at FI=10, as synthesized in
	// §IV-A3).
	CSBEntries int

	// RollbackPenalty is the pair-stall cost of a fingerprint mismatch
	// (serial rollback to the last verified fingerprint and
	// re-execution). Zero means derive: 2*CompareLatency + 2*FI.
	RollbackPenalty uint64
}

// CSBForFI returns the CSB capacity the paper derives for a fingerprint
// interval: one full window in comparison plus the partial window the
// pipeline keeps filling, i.e. FI+7 entries — 17 at FI=10 (§IV-A3) and
// 57 at FI=50 (the 39125 µm² CSB of §IV-A3 at 10.40 µm²/bit × 66 bits).
// This also keeps the buffer larger than one window, which commit
// liveness requires.
func CSBForFI(fi int) int { return fi + 7 }

// DefaultConfig returns the paper's Reunion operating point: FI=10
// (the minimum the Reunion authors indicate) and the 6-cycle minimum
// fingerprint communicate-and-compare latency of §IV-A3. Figure 5
// sweeps both knobs upward explicitly.
func DefaultConfig() Config {
	return Config{FI: 10, CompareLatency: 6}
}

// Validate checks configuration invariants.
func (c *Config) Validate() error {
	if c.FI < 1 {
		return fmt.Errorf("reunion: FI %d < 1", c.FI)
	}
	if c.CompareLatency < 1 {
		return fmt.Errorf("reunion: CompareLatency %d < 1", c.CompareLatency)
	}
	if c.CSBEntries < 0 {
		return fmt.Errorf("reunion: negative CSBEntries")
	}
	return nil
}

func (c *Config) csbEntries() int {
	if c.CSBEntries >= c.FI+1 {
		return c.CSBEntries
	}
	return CSBForFI(c.FI)
}

// CSBCapacity exposes the effective CHECK Stage Buffer capacity.
func (c *Config) CSBCapacity() int { return c.csbEntries() }

func (c *Config) rollbackPenalty() uint64 {
	if c.RollbackPenalty > 0 {
		return c.RollbackPenalty
	}
	return 2*c.CompareLatency + 2*uint64(c.FI)
}

// fingerprint tracks one fingerprint window across the pair.
type fingerprint struct {
	count  [2]int    // instructions folded per core
	value  [2]uint16 // CRC-16 per core
	closed [2]bool
	closeT [2]uint64
}

// verifiedAt returns the cycle at which the fingerprint comparison
// completes, and whether both sides have closed it.
func (f *fingerprint) verifiedAt(lat uint64) (uint64, bool) {
	if !f.closed[0] || !f.closed[1] {
		return 0, false
	}
	t := f.closeT[0]
	if f.closeT[1] > t {
		t = f.closeT[1]
	}
	return t + lat, true
}

// PairStats aggregates pair-level counters.
type PairStats struct {
	Fingerprints   uint64 // fingerprints closed (per pair)
	Mismatches     uint64 // fingerprint comparison failures
	Rollbacks      uint64
	RollbackCycles uint64

	CSBFullStall   [2]uint64 // commit blocks: CSB full
	SerializeStall [2]uint64 // commit blocks: serializing synchronization

	CSBOcc [2]*stats.Occupancy
}

// Pair is one Reunion redundant core-pair.
type Pair struct {
	Cfg   Config
	A, B  *pipeline.Core
	Hier  *mem.Hierarchy
	Stats PairStats

	cycle uint64

	// fps holds the in-flight fingerprint windows, oldest (fps front)
	// to newest. The CSB capacity bounds the population in steady
	// state, so the preallocated ring rarely (if ever) grows.
	fps      *ring.Buffer[fingerprint]
	fpBase   uint64    // global index of the front window
	cur      [2]uint64 // index of the fingerprint each core is filling
	csbOcc   [2]int
	gateFp   [2]int64       // fp id that must verify before the core commits again (-1: none)
	serWait  [2]bool        // core stalled on serializing synchronization
	injected map[uint64]int // fp id -> core whose fingerprint is corrupted
}

// MemConfig adapts a hierarchy configuration to Reunion's assumptions:
// write-back SECDED L1s over the shared ECC L2 (the Reunion design
// assumes an ECC-protected cache, §VI-D).
func MemConfig(memCfg mem.Config) mem.Config {
	memCfg.L1D.Policy = mem.WriteBack
	memCfg.L1D.Protect = mem.ProtSECDED
	memCfg.L1I.Protect = mem.ProtSECDED
	memCfg.L2.Protect = mem.ProtSECDED
	return memCfg
}

// NewPair builds a Reunion pair over its own two-core hierarchy.
func NewPair(coreCfg pipeline.Config, memCfg mem.Config, cfg Config, streamA, streamB trace.Stream) *Pair {
	h := mem.NewHierarchy(MemConfig(memCfg), 2)
	return NewPairOn(coreCfg, cfg, h, 0, 1, streamA, streamB)
}

// NewPairOn builds a Reunion pair on an existing hierarchy, occupying
// core slots idA and idB (multi-pair chips share one hierarchy).
func NewPairOn(coreCfg pipeline.Config, cfg Config, h *mem.Hierarchy, idA, idB int, streamA, streamB trace.Stream) *Pair {
	if err := cfg.Validate(); err != nil {
		//unsync:allow-panic configs are validated at the public API boundary; an invalid one here is a programming error
		panic(err)
	}
	p := &Pair{Cfg: cfg, Hier: h, injected: make(map[uint64]int)}
	p.fps = ring.New[fingerprint](cfg.csbEntries() + 2)
	p.gateFp[0], p.gateFp[1] = -1, -1
	p.A = pipeline.NewCore(coreCfg, idA, h, streamA)
	p.B = pipeline.NewCore(coreCfg, idB, h, streamB)
	csb := cfg.csbEntries()
	p.Stats.CSBOcc[0] = stats.NewOccupancy(csb)
	p.Stats.CSBOcc[1] = stats.NewOccupancy(csb)
	p.attach(0, p.A)
	p.attach(1, p.B)
	return p
}

func (p *Pair) attach(side int, c *pipeline.Core) {
	c.CommitGate = func(rec trace.Record, cycle uint64) bool { return p.gate(side, rec, cycle) }
	c.OnCommit = func(rec trace.Record, cycle uint64) { p.onCommit(side, rec, cycle) }
	// While a serializing instruction synchronizes the pair, the whole
	// pipeline stalls — not just commit (§IV-A5).
	c.IssueGate = func(cycle uint64) bool { return !p.serWait[side] }
	// No DrainEmpty hook: Reunion has no separate store path — stores
	// are architecturally committed once their fingerprint verifies,
	// which the commit gate's serializing rule already enforces. Gating
	// barriers on an empty CSB would deadlock (the barrier itself must
	// commit to close the window that empties the CSB).
}

// fp returns the fingerprint window with global index id, growing the
// window list as needed. The pointer is invalidated by the next fp
// call with a larger id (the ring may grow); callers finish with it
// before opening new windows.
func (p *Pair) fp(id uint64) *fingerprint {
	for id >= p.fpBase+uint64(p.fps.Len()) {
		p.fps.PushBack(fingerprint{})
	}
	return p.fps.At(int(id - p.fpBase))
}

// gate decides whether instruction rec may commit on side this cycle.
func (p *Pair) gate(side int, rec trace.Record, cycle uint64) bool {
	// Blocked behind a serializing fingerprint's verification?
	if g := p.gateFp[side]; g >= 0 {
		if uint64(g) >= p.fpBase { // not yet retired
			v, ok := p.fp(uint64(g)).verifiedAt(p.Cfg.CompareLatency)
			if !ok || cycle < v {
				p.Stats.SerializeStall[side]++
				p.serWait[side] = true
				return false
			}
		}
		p.gateFp[side] = -1
		p.serWait[side] = false
	}
	if p.csbOcc[side] >= p.Cfg.csbEntries() {
		p.Stats.CSBFullStall[side]++
		return false
	}
	if rec.Serializing() {
		// The serializing instruction must start its own fingerprint:
		// close the current partial window (once) and wait until every
		// earlier fingerprint of this core has been verified.
		cur := p.fp(p.cur[side])
		if cur.count[side] > 0 {
			p.closeFp(side, cycle)
		}
		if p.unverified(side, cycle) {
			p.Stats.SerializeStall[side]++
			p.serWait[side] = true
			return false
		}
		p.serWait[side] = false
	}
	return true
}

// unverified reports whether the core still has any closed-but-not-yet-
// verified fingerprint at the given cycle.
func (p *Pair) unverified(side int, cycle uint64) bool {
	for i := 0; i < p.fps.Len(); i++ {
		f := p.fps.At(i)
		if f.count[side] == 0 {
			continue
		}
		if !f.closed[side] {
			return true
		}
		v, ok := f.verifiedAt(p.Cfg.CompareLatency)
		if !ok || cycle < v {
			return true
		}
	}
	return false
}

// onCommit folds the committed instruction into the core's current
// fingerprint and closes the window at the fingerprint interval or
// around serializing instructions.
func (p *Pair) onCommit(side int, rec trace.Record, cycle uint64) {
	f := p.fp(p.cur[side])
	f.count[side]++
	f.value[side] = crc.Update64(f.value[side], rec.PC)
	f.value[side] = crc.Update64(f.value[side], rec.Data)
	p.csbOcc[side]++

	if rec.Serializing() {
		// The serializing instruction is the sole member of its
		// window; later commits wait for its verification.
		id := p.cur[side]
		p.closeFp(side, cycle)
		p.gateFp[side] = int64(id)
		return
	}
	if f.count[side] >= p.Cfg.FI {
		p.closeFp(side, cycle)
	}
}

func (p *Pair) closeFp(side int, cycle uint64) {
	f := p.fp(p.cur[side])
	f.closed[side] = true
	f.closeT[side] = cycle
	if f.closed[0] && f.closed[1] {
		p.Stats.Fingerprints++
	}
	p.cur[side]++
}

// retire releases CSB entries whose fingerprints have verified, and
// detects mismatches.
func (p *Pair) retire() {
	for p.fps.Len() > 0 {
		f := p.fps.Front()
		v, ok := f.verifiedAt(p.Cfg.CompareLatency)
		if !ok || p.cycle < v {
			return
		}
		mismatch := f.value[0] != f.value[1]
		if inj, isInj := p.injected[p.fpBase]; isInj {
			mismatch = true
			_ = inj
			delete(p.injected, p.fpBase)
		}
		if mismatch {
			p.Stats.Mismatches++
			p.rollback()
		}
		p.csbOcc[0] -= f.count[0]
		p.csbOcc[1] -= f.count[1]
		p.fps.PopFront()
		p.fpBase++
	}
}

// rollback models recovery from a fingerprint mismatch: both cores
// squash back to the last verified fingerprint and re-execute.
func (p *Pair) rollback() {
	cost := p.Cfg.rollbackPenalty()
	until := p.cycle + cost
	p.A.FreezeUntil(until)
	p.B.FreezeUntil(until)
	p.Stats.Rollbacks++
	p.Stats.RollbackCycles += cost
}

// InjectMismatch marks the fingerprint window that contains the next
// commit of the given core as corrupted, forcing a mismatch when it is
// compared (fault-injection hook).
func (p *Pair) InjectMismatch(core int) {
	p.injected[p.cur[core]] = core
}

// Committed returns the pair's committed-instruction clock: the minimum
// over both replicas (the engine's one warmup rule — see cmp.Drive).
func (p *Pair) Committed() uint64 {
	if p.A.Stats.Insts < p.B.Stats.Insts {
		return p.A.Stats.Insts
	}
	return p.B.Stats.Insts
}

// Replicas returns the number of cores a soft error can strike.
func (p *Pair) Replicas() int { return 2 }

// InjectError models a soft-error strike on the given core: the upset
// corrupts the fingerprint window in flight, so it surfaces as a
// detected mismatch when that window's comparison completes — the
// detection latency is the fingerprint mechanism itself, not a separate
// parameter.
func (p *Pair) InjectError(cycle uint64, core int) {
	p.InjectMismatch(core)
}

// Cycle returns the pair's cycle counter.
func (p *Pair) Cycle() uint64 { return p.cycle }

// CSBLen returns the CSB occupancy of one core.
func (p *Pair) CSBLen(side int) int { return p.csbOcc[side] }

// Step advances the pair by one cycle. Once both cores have drained,
// it first closes any trailing partial fingerprint windows so their
// final entries can retire.
func (p *Pair) Step() {
	for side := 0; side < 2; side++ {
		if p.trailingOpen(side) {
			p.closeFp(side, p.cycle)
		}
	}
	p.retire()
	p.A.Step()
	p.B.Step()
	p.Stats.CSBOcc[0].Sample(p.csbOcc[0])
	p.Stats.CSBOcc[1].Sample(p.csbOcc[1])
	p.cycle++
}

// trailingOpen reports whether both cores have drained and side's
// current fingerprint window is partial and still open: the window
// Step closes. It reads the windows without opening new ones.
func (p *Pair) trailingOpen(side int) bool {
	if !p.A.Done() || !p.B.Done() {
		return false
	}
	i := p.cur[side] - p.fpBase
	if i >= uint64(p.fps.Len()) {
		return false
	}
	f := p.fps.At(int(i))
	return f.count[side] > 0 && !f.closed[side]
}

// NextEvent returns the earliest cycle, at or after Cycle(), at which
// Step could do more than quiet bookkeeping: the earlier of both
// cores' bounds and the verification of the front fingerprint, once
// both sides have closed it. A pending trailing-window close makes the
// current cycle busy.
func (p *Pair) NextEvent() uint64 {
	next := p.A.NextEvent()
	if next == p.cycle || p.trailingOpen(0) || p.trailingOpen(1) {
		return p.cycle
	}
	next = min(next, p.B.NextEvent())
	if p.fps.Len() > 0 {
		if v, ok := p.fps.Front().verifiedAt(p.Cfg.CompareLatency); ok {
			next = min(next, v)
		}
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
	p.Stats.CSBOcc[0].SampleN(p.csbOcc[0], n)
	p.Stats.CSBOcc[1].SampleN(p.csbOcc[1], n)
	p.cycle = to
}

// Done reports whether both cores have finished and every fingerprint
// has been verified and retired. It has no side effects.
func (p *Pair) Done() bool {
	return p.A.Done() && p.B.Done() && p.csbOcc[0] == 0 && p.csbOcc[1] == 0
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
// hierarchy) after warmup, so every event counter covers only the
// measurement window.
func (p *Pair) ResetStats() {
	p.A.ResetStats()
	p.B.ResetStats()
	p.Hier.ResetStats()
	csb := p.Cfg.csbEntries()
	p.Stats = PairStats{
		CSBOcc: [2]*stats.Occupancy{stats.NewOccupancy(csb), stats.NewOccupancy(csb)},
	}
}

// Events returns the pair-level event counts of the Reunion scheme
// under the repository-wide taxonomy (internal/events): CHECK Stage
// Buffer waits, fingerprint traffic and rollback costs. Per-replica
// stall counters are summed; core- and memory-side events are merged
// in by the measurement engine (cmp).
func (p *Pair) Events() events.Counts {
	return events.Counts{
		events.CSBFullStall:      p.Stats.CSBFullStall[0] + p.Stats.CSBFullStall[1],
		events.CSBSerializeStall: p.Stats.SerializeStall[0] + p.Stats.SerializeStall[1],
		events.FPClosed:          p.Stats.Fingerprints,
		events.FPMismatch:        p.Stats.Mismatches,
		events.RollbackCount:     p.Stats.Rollbacks,
		events.RollbackCycles:    p.Stats.RollbackCycles,
	}
}

// IPC returns the pair's architectural throughput. A pair that never
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
