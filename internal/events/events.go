// Package events defines the simulator's named hardware-counter
// taxonomy: every performance event the cores, memory hierarchy and
// redundancy schemes count, each under a stable string name with a
// unit and a topdown bucket. The names follow the PerfSpect-style
// dotted convention ("L1D.REPLACEMENT", "TOPDOWN.SLOTS") so the event
// study's deltas and the /metrics endpoint stay diffable across commits.
//
// The package is a leaf: producers (internal/pipeline, internal/core,
// internal/reunion, internal/tmr, internal/mem via internal/cmp)
// return Counts keyed by these names, and consumers (unsync-bench,
// unsync-serve, CI) never need to know which subsystem incremented
// what.
//
// The topdown decomposition partitions the commit-slot capacity of the
// measurement window (Width × Cycles slots) into four exhaustive,
// mutually exclusive buckets, mirroring the classic frontend/backend/
// retiring/bad-speculation split. Here the fourth bucket is "bad gate":
// slots lost to the redundancy scheme's commit gating and recovery
// freezes, which play the role speculation waste plays on real
// hardware. TopdownOf computes the fractions; the accounting-identity
// test in internal/cmp pins that they sum to one.
package events

import "sort"

// Unit is the measurement unit of an event.
type Unit string

// Units used by the registry.
const (
	UnitCycles Unit = "cycles"
	UnitInsts  Unit = "insts"
	UnitSlots  Unit = "slots"
	UnitCount  Unit = "count"
	UnitLines  Unit = "lines"
	UnitTrials Unit = "trials"
)

// Bucket is the topdown bucket an event feeds, if any.
type Bucket string

// Topdown buckets. BucketNone marks events outside the slot
// decomposition (raw counters, memory events, campaign tallies).
const (
	BucketNone     Bucket = ""
	BucketRetiring Bucket = "retiring"
	BucketFrontend Bucket = "frontend"
	BucketBackend  Bucket = "backend"
	BucketBadGate  Bucket = "bad-gate"
)

// Event describes one named counter.
type Event struct {
	Name   string
	Unit   Unit
	Bucket Bucket
	Desc   string
}

// Event names. Producers key their Counts with these constants; the
// strings are a stable external interface (/metrics and the
// `unsync-bench -run events` tables): renaming one breaks scrapers.
const (
	// Core pipeline events (internal/pipeline).
	Cycles           = "CYCLES"
	InstRetired      = "INST.RETIRED"
	InstSerializing  = "INST.SERIALIZING"
	MemInstLoads     = "MEM_INST.LOADS"
	MemInstStores    = "MEM_INST.STORES"
	BranchFetched    = "BRANCH.FETCHED"
	BranchMispredict = "BRANCH.MISPREDICT"

	// Commit-slot-0 stall causes; with COMMIT.CYCLES and FROZEN.CYCLES
	// they partition CYCLES exactly (the accounting identity).
	CommitCycles     = "COMMIT.CYCLES"
	CommitStallEmpty = "COMMIT.STALL_EMPTY"
	CommitStallExec  = "COMMIT.STALL_EXEC"
	CommitStallGate  = "COMMIT.STALL_GATE"
	FrozenCycles     = "FROZEN.CYCLES"

	// Dispatch and fetch stalls.
	DispatchStallROBFull = "DISPATCH.STALL_ROB_FULL"
	DispatchStallIQFull  = "DISPATCH.STALL_IQ_FULL"
	DispatchStallLSQFull = "DISPATCH.STALL_LSQ_FULL"
	FetchStall           = "FETCH.STALL"

	// Topdown slot buckets (Width × CYCLES total slots).
	TopdownSlots         = "TOPDOWN.SLOTS"
	TopdownRetiringSlots = "TOPDOWN.RETIRING_SLOTS"
	TopdownFrontendSlots = "TOPDOWN.FRONTEND_SLOTS"
	TopdownBackendSlots  = "TOPDOWN.BACKEND_SLOTS"
	TopdownBadGateSlots  = "TOPDOWN.BAD_GATE_SLOTS"

	// Memory hierarchy events (internal/mem, collected per owning core).
	L1DMiss        = "L1D.MISS"
	L1DReplacement = "L1D.REPLACEMENT"
	L1DMSHRStall   = "L1D.MSHR_STALL"
	L1IMiss        = "L1I.MISS"
	L1IReplacement = "L1I.REPLACEMENT"
	L2Miss         = "L2.MISS"
	L2Replacement  = "L2.REPLACEMENT"
	DTLBMiss       = "DTLB.MISS"
	ITLBMiss       = "ITLB.MISS"
	PrefetchIssued = "PREFETCH.ISSUED"

	// UnSync pair events (internal/core): Communication Buffer pressure
	// and EIH recovery costs.
	CBFullStall    = "CB.FULL_STALL"
	CBDrained      = "CB.DRAINED"
	CBDivergence   = "CB.DIVERGENCE"
	RecoveryCount  = "RECOVERY.COUNT"
	RecoveryCycles = "RECOVERY.CYCLES"

	// Reunion pair events (internal/reunion): CHECK Stage Buffer waits
	// and fingerprint traffic.
	CSBFullStall      = "CSB.FULL_STALL"
	CSBSerializeStall = "CSB.SERIALIZE_STALL"
	FPClosed          = "FP.CLOSED"
	FPMismatch        = "FP.MISMATCH"
	RollbackCount     = "ROLLBACK.COUNT"
	RollbackCycles    = "ROLLBACK.CYCLES"

	// TMR triple events (internal/tmr): majority voting and masking.
	TMRMasked    = "TMR.MASKED"
	ResyncCount  = "RESYNC.COUNT"
	ResyncCycles = "RESYNC.CYCLES"

	// Fault-injection campaign tallies (internal/campaign).
	CampaignTrials        = "CAMPAIGN.TRIALS"
	CampaignBenign        = "CAMPAIGN.BENIGN"
	CampaignRecovered     = "CAMPAIGN.RECOVERED"
	CampaignUnrecoverable = "CAMPAIGN.UNRECOVERABLE"
	CampaignSDC           = "CAMPAIGN.SDC"
	CampaignHang          = "CAMPAIGN.HANG"
)

// defined is the full registry, in reporting order (grouped by
// subsystem, the order Defined returns).
var defined = []Event{
	{Cycles, UnitCycles, BucketNone, "machine cycles in the measurement window"},
	{InstRetired, UnitInsts, BucketRetiring, "instructions retired by the commit stage"},
	{InstSerializing, UnitInsts, BucketNone, "serializing instructions committed (traps, barriers, atomics)"},
	{MemInstLoads, UnitInsts, BucketNone, "load instructions committed"},
	{MemInstStores, UnitInsts, BucketNone, "store instructions committed"},
	{BranchFetched, UnitCount, BucketNone, "conditional branches fetched"},
	{BranchMispredict, UnitCount, BucketNone, "branch direction mispredictions"},

	{CommitCycles, UnitCycles, BucketNone, "cycles in which slot 0 committed an instruction"},
	{CommitStallEmpty, UnitCycles, BucketFrontend, "slot-0 stalls: ROB empty (frontend-bound)"},
	{CommitStallExec, UnitCycles, BucketBackend, "slot-0 stalls: head not finished executing"},
	{CommitStallGate, UnitCycles, BucketBadGate, "slot-0 stalls: blocked by the redundancy scheme's commit gate"},
	{FrozenCycles, UnitCycles, BucketBadGate, "whole-core cycles frozen inside a recovery window"},

	{DispatchStallROBFull, UnitCycles, BucketNone, "dispatch stalls: reorder buffer full"},
	{DispatchStallIQFull, UnitCycles, BucketNone, "dispatch stalls: issue queue full"},
	{DispatchStallLSQFull, UnitCycles, BucketNone, "dispatch stalls: load/store queue full"},
	{FetchStall, UnitCycles, BucketNone, "cycles the frontend fetch was stalled"},

	{TopdownSlots, UnitSlots, BucketNone, "total commit slots (Width x CYCLES)"},
	{TopdownRetiringSlots, UnitSlots, BucketRetiring, "slots that retired an instruction"},
	{TopdownFrontendSlots, UnitSlots, BucketFrontend, "slots lost to an empty ROB"},
	{TopdownBackendSlots, UnitSlots, BucketBackend, "slots lost waiting on execution or partial-width commit"},
	{TopdownBadGateSlots, UnitSlots, BucketBadGate, "slots lost to scheme gating and recovery freezes"},

	{L1DMiss, UnitCount, BucketNone, "L1 data cache misses"},
	{L1DReplacement, UnitLines, BucketNone, "L1 data cache lines installed (fills)"},
	{L1DMSHRStall, UnitCount, BucketNone, "L1D misses delayed waiting for a free MSHR"},
	{L1IMiss, UnitCount, BucketNone, "L1 instruction cache misses"},
	{L1IReplacement, UnitLines, BucketNone, "L1 instruction cache lines installed (fills)"},
	{L2Miss, UnitCount, BucketNone, "shared L2 misses"},
	{L2Replacement, UnitLines, BucketNone, "shared L2 lines installed (fills)"},
	{DTLBMiss, UnitCount, BucketNone, "data TLB misses"},
	{ITLBMiss, UnitCount, BucketNone, "instruction TLB misses"},
	{PrefetchIssued, UnitCount, BucketNone, "next-line prefetches issued by the stream detector"},

	{CBFullStall, UnitCycles, BucketNone, "commit-block cycles due to a full Communication Buffer (summed over replicas)"},
	{CBDrained, UnitCount, BucketNone, "matched CB entries written once to the ECC L2"},
	{CBDivergence, UnitCount, BucketNone, "head-of-CB tag mismatches (escaped errors)"},
	{RecoveryCount, UnitCount, BucketNone, "EIH pair recoveries performed"},
	{RecoveryCycles, UnitCycles, BucketNone, "cycles spent in the stop-copy-resume recovery window"},

	{CSBFullStall, UnitCycles, BucketNone, "commit-block cycles due to a full CHECK Stage Buffer (summed over replicas)"},
	{CSBSerializeStall, UnitCycles, BucketNone, "commit-block cycles waiting on serializing fingerprint verification (summed over replicas)"},
	{FPClosed, UnitCount, BucketNone, "fingerprint windows closed by both cores"},
	{FPMismatch, UnitCount, BucketNone, "fingerprint comparison failures"},
	{RollbackCount, UnitCount, BucketNone, "pair rollbacks after a fingerprint mismatch"},
	{RollbackCycles, UnitCycles, BucketNone, "cycles spent in rollback re-execution windows"},

	{TMRMasked, UnitCount, BucketNone, "divergent minority CB heads outvoted and discarded"},
	{ResyncCount, UnitCount, BucketNone, "single-core resynchronizations performed"},
	{ResyncCycles, UnitCycles, BucketNone, "cycles struck cores spent frozen during resynchronization"},

	{CampaignTrials, UnitTrials, BucketNone, "fault-injection trials tallied"},
	{CampaignBenign, UnitTrials, BucketNone, "trials whose strike was architecturally masked"},
	{CampaignRecovered, UnitTrials, BucketNone, "trials detected and recovered by the scheme"},
	{CampaignUnrecoverable, UnitTrials, BucketNone, "trials detected but not recoverable"},
	{CampaignSDC, UnitTrials, BucketNone, "trials ending in silent data corruption"},
	{CampaignHang, UnitTrials, BucketNone, "trials that exceeded the hang budget"},
}

// byName indexes the registry for Lookup.
var byName = func() map[string]Event {
	m := make(map[string]Event, len(defined))
	for _, e := range defined {
		if _, dup := m[e.Name]; dup {
			panic("events: duplicate event name " + e.Name)
		}
		m[e.Name] = e
	}
	return m
}()

// Defined returns every registered event in reporting order. The
// returned slice is a copy.
func Defined() []Event {
	out := make([]Event, len(defined))
	copy(out, defined)
	return out
}

// Lookup returns the registered event for a name.
func Lookup(name string) (Event, bool) {
	e, ok := byName[name]
	return e, ok
}

// Counts maps event names to counter values. The zero value is not
// usable; make one with Counts{} or make(Counts).
type Counts map[string]uint64

// Add increments one counter.
func (c Counts) Add(name string, n uint64) { c[name] += n }

// Merge adds every counter of other into c. A nil other is a no-op.
func (c Counts) Merge(other Counts) {
	for _, name := range other.Names() {
		c[name] += other[name]
	}
}

// Names returns the event names present in c, sorted — the one
// sanctioned iteration order (deterministic output, maprange lint).
func (c Counts) Names() []string {
	out := make([]string, 0, len(c))
	for name := range c {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Delta returns cur − prev per event (union of keys) as signed counts,
// for the event study's scheme-vs-baseline comparison.
func Delta(cur, prev Counts) map[string]int64 {
	out := make(map[string]int64, len(cur))
	for _, name := range cur.Names() {
		out[name] = int64(cur[name]) - int64(prev[name])
	}
	for _, name := range prev.Names() {
		if _, ok := out[name]; !ok {
			out[name] = -int64(prev[name])
		}
	}
	return out
}

// Topdown is the four-bucket slot decomposition of a measurement
// window. The fractions are of TOPDOWN.SLOTS and sum to one whenever
// the producer maintained the accounting identity.
type Topdown struct {
	Slots    uint64
	Retiring float64
	Frontend float64
	Backend  float64
	BadGate  float64
}

// TopdownOf derives the slot fractions from a Counts map. ok is false
// when the window has no slots (zero cycles).
func TopdownOf(c Counts) (Topdown, bool) {
	slots := c[TopdownSlots]
	if slots == 0 {
		return Topdown{}, false
	}
	frac := func(name string) float64 { return float64(c[name]) / float64(slots) }
	return Topdown{
		Slots:    slots,
		Retiring: frac(TopdownRetiringSlots),
		Frontend: frac(TopdownFrontendSlots),
		Backend:  frac(TopdownBackendSlots),
		BadGate:  frac(TopdownBadGateSlots),
	}, true
}
