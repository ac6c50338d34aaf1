package pipeline

import (
	"errors"
	"math/bits"

	"github.com/cmlasu/unsync/internal/events"
	"github.com/cmlasu/unsync/internal/isa"
	"github.com/cmlasu/unsync/internal/mem"
	"github.com/cmlasu/unsync/internal/ring"
	"github.com/cmlasu/unsync/internal/stats"
	"github.com/cmlasu/unsync/internal/trace"
)

// Stats aggregates per-core performance counters.
type Stats struct {
	Cycles uint64
	// Insts is the architectural committed-instruction counter; recovery
	// Restarts adjust it to the resumed position, so it feeds IPC and
	// the committed clock but NOT the topdown slot accounting.
	Insts uint64
	// Retired counts microarchitectural retires only — one per commit,
	// never adjusted by Restart — so the topdown retiring bucket cannot
	// exceed the slot capacity even across recoveries.
	Retired uint64

	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64
	Serializing uint64

	// Commit-slot-0 accounting. Exactly one of CommitCycles, StallEmpty,
	// StallExec, StallGate increments per unfrozen cycle, and frozen
	// cycles increment FrozenCycles, so
	//
	//	Cycles == CommitCycles + StallEmpty + StallExec + StallGate + FrozenCycles
	//
	// holds over any window that starts at a ResetStats — the accounting
	// identity the topdown report depends on (pinned in internal/cmp).
	CommitCycles uint64 // cycles in which slot 0 committed
	StallEmpty   uint64 // ROB empty (frontend-bound)
	StallExec    uint64 // head not finished executing
	StallGate    uint64 // blocked by the redundancy scheme / drain

	// Dispatch stall cycles by cause.
	DispatchStallROB uint64
	DispatchStallIQ  uint64
	DispatchStallLSQ uint64

	FetchStall   uint64 // cycles the frontend was stalled
	FrozenCycles uint64 // cycles spent frozen in a recovery window

	ROBOcc *stats.Occupancy
	IQOcc  *stats.Occupancy
	LSQOcc *stats.Occupancy
}

// IPC returns committed instructions per cycle. A window of zero
// cycles (a machine that never stepped) reports 0, not NaN.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// Events exports the counters under the repository-wide taxonomy
// (internal/events) for a core of the given commit width, including
// the derived topdown slot buckets:
//
//	slots    = width × Cycles
//	frontend = width × StallEmpty
//	bad-gate = width × (StallGate + FrozenCycles)
//	retiring = Retired
//	backend  = width × (StallExec + CommitCycles) − Retired
//
// The backend bucket absorbs both execution-bound slot-0 stalls and the
// partial-width slack of commit cycles (slot 0 committed, later slots
// did not), so the five buckets partition the slot capacity exactly.
func (s *Stats) Events(width int) events.Counts {
	w := uint64(width)
	return events.Counts{
		events.Cycles:           s.Cycles,
		events.InstRetired:      s.Retired,
		events.InstSerializing:  s.Serializing,
		events.MemInstLoads:     s.Loads,
		events.MemInstStores:    s.Stores,
		events.BranchFetched:    s.Branches,
		events.BranchMispredict: s.Mispredicts,

		events.CommitCycles:     s.CommitCycles,
		events.CommitStallEmpty: s.StallEmpty,
		events.CommitStallExec:  s.StallExec,
		events.CommitStallGate:  s.StallGate,
		events.FrozenCycles:     s.FrozenCycles,

		events.DispatchStallROBFull: s.DispatchStallROB,
		events.DispatchStallIQFull:  s.DispatchStallIQ,
		events.DispatchStallLSQFull: s.DispatchStallLSQ,
		events.FetchStall:           s.FetchStall,

		events.TopdownSlots:         w * s.Cycles,
		events.TopdownRetiringSlots: s.Retired,
		events.TopdownFrontendSlots: w * s.StallEmpty,
		events.TopdownBackendSlots:  w*(s.StallExec+s.CommitCycles) - s.Retired,
		events.TopdownBadGateSlots:  w * (s.StallGate + s.FrozenCycles),
	}
}

// entry is one reorder-buffer slot.
type entry struct {
	rec trace.Record

	dep1, dep2       int // ROB index of producer, or -1
	dep1Seq, dep2Seq uint64
	ready1At         uint64 // used when dep == -1
	ready2At         uint64

	issued     bool
	complete   uint64
	mispredict bool
}

type fetched struct {
	rec        trace.Record
	mispredict bool
}

// Core is one out-of-order core fed by a trace stream.
type Core struct {
	Cfg  Config
	ID   int // index into the hierarchy's core sides
	Hier *mem.Hierarchy
	Pred *Bimodal

	// CommitGate, when non-nil, is consulted before each commit; return
	// false to block commit this cycle (the scheme's backpressure).
	CommitGate func(rec trace.Record, cycle uint64) bool
	// OnCommit, when non-nil, observes every commit.
	OnCommit func(rec trace.Record, cycle uint64)
	// DrainEmpty gates memory-barrier commit on the scheme's store path
	// being empty. nil means always empty.
	DrainEmpty func(cycle uint64) bool
	// IssueGate, when non-nil, can block instruction issue for a cycle
	// (Reunion stalls the whole pipeline while a serializing
	// instruction's fingerprint is being verified, §IV-A5). It must
	// have no side effects: cycles skipped through NextEvent and Skip
	// do not consult it.
	IssueGate func(cycle uint64) bool

	Stats Stats

	stream   trace.Stream
	cycle    uint64
	position uint64 // absolute committed-instruction position (survives ResetStats)

	rob   []entry
	head  int
	count int

	regProd    [isa.TotalDepRegs]int
	regProdSeq [isa.TotalDepRegs]uint64
	regReadyAt [isa.TotalDepRegs]uint64

	// unissued counts dispatched, not yet issued entries: the
	// issue-queue occupancy.
	unissued int
	// armed is a bitmap over ROB indices of the unissued entries whose
	// producers have all issued: the only entries the issue walk
	// visits. waiters holds one robWords-word bitmap row per ROB
	// index: the unissued consumers still waiting on that entry to
	// issue. Both are sized at construction and never grow.
	armed    []uint64
	waiters  []uint64
	robWords int
	// wake is the earliest cycle at which an armed entry can issue, as
	// known after a pass that issued nothing; issue skips its walk
	// before it. Any dispatch, commit or Restart resets it to 0, as
	// does a pass that issued (see DESIGN.md §6).
	wake uint64

	memInROB int // memory ops in flight (LSQ occupancy)

	// storeList holds ROB indices of in-flight stores in program order.
	// Occupancy is bounded by the LSQ, so the preallocated ring never
	// grows on the cycle loop.
	storeList *ring.Buffer[int]

	fetchQ        *ring.Buffer[fetched] // bounded by Cfg.FetchQueue
	pendingFetch  trace.Record          // valid when hasPending
	hasPending    bool
	fetchResumeAt uint64
	waitRedirect  bool
	curFetchLine  uint64
	streamDone    bool

	frozenUntil uint64

	alu, mul, fp, memPorts *fuPool
}

// NewCore builds a core over the given hierarchy slot and stream. It
// panics on invalid configuration.
func NewCore(cfg Config, id int, hier *mem.Hierarchy, stream trace.Stream) *Core {
	if err := cfg.Validate(); err != nil {
		//unsync:allow-panic core configs are validated at the public API boundary
		panic(err)
	}
	if id < 0 || id >= len(hier.Cores) {
		//unsync:allow-panic invariant: chip assembly allocates hierarchy slots before building cores
		panic("pipeline: core id out of range of hierarchy")
	}
	words := (cfg.ROBSize + 63) / 64
	c := &Core{
		Cfg:          cfg,
		ID:           id,
		Hier:         hier,
		Pred:         NewBimodal(cfg.PredictorEntries),
		stream:       stream,
		rob:          make([]entry, cfg.ROBSize),
		armed:        make([]uint64, words),
		waiters:      make([]uint64, cfg.ROBSize*words),
		robWords:     words,
		storeList:    ring.New[int](cfg.LSQSize),
		fetchQ:       ring.New[fetched](cfg.FetchQueue),
		curFetchLine: ^uint64(0),
		alu:          newFUPool(cfg.IntALUs, true),
		mul:          newFUPool(cfg.IntMuls, true),
		fp:           newFUPool(cfg.FPUs, true),
		memPorts:     newFUPool(cfg.MemPorts, true),
	}
	for i := range c.regProd {
		c.regProd[i] = -1
	}
	c.Stats.ROBOcc = stats.NewOccupancy(cfg.ROBSize)
	c.Stats.IQOcc = stats.NewOccupancy(cfg.IQSize)
	c.Stats.LSQOcc = stats.NewOccupancy(cfg.LSQSize)
	return c
}

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// ROBCount returns the current reorder-buffer occupancy.
func (c *Core) ROBCount() int { return c.count }

// HeadInfo returns the record at the ROB head and its issue state, for
// diagnostics. ok is false when the ROB is empty.
func (c *Core) HeadInfo() (rec trace.Record, issued bool, complete uint64, ok bool) {
	if c.count == 0 {
		return trace.Record{}, false, 0, false
	}
	e := &c.rob[c.head]
	return e.rec, e.issued, e.complete, true
}

// ResetStats zeroes all performance counters without disturbing the
// microarchitectural state. Experiments call it after a warmup phase so
// cold-cache effects do not dominate short measurement windows.
func (c *Core) ResetStats() {
	c.Stats = Stats{
		ROBOcc: stats.NewOccupancy(c.Cfg.ROBSize),
		IQOcc:  stats.NewOccupancy(c.Cfg.IQSize),
		LSQOcc: stats.NewOccupancy(c.Cfg.LSQSize),
	}
}

// Events exports the core's counters under the repository-wide event
// taxonomy, topdown buckets included (see Stats.Events).
func (c *Core) Events() events.Counts { return c.Stats.Events(c.Cfg.Width) }

// Done reports whether the stream is exhausted and the pipeline drained.
func (c *Core) Done() bool {
	return c.streamDone && c.count == 0 && c.fetchQ.Empty() && !c.hasPending
}

// FreezeUntil stalls the whole core (all stages) until the given cycle.
// UnSync recovery uses this to model the stop-copy-resume window.
func (c *Core) FreezeUntil(cycle uint64) {
	if cycle > c.frozenUntil {
		c.frozenUntil = cycle
	}
}

// Frozen reports whether the core is inside a recovery freeze window.
func (c *Core) Frozen() bool { return c.cycle < c.frozenUntil }

// Position returns the absolute committed-instruction position (it is
// not reset by ResetStats).
func (c *Core) Position() uint64 { return c.position }

// Restart flushes the whole pipeline and repositions the core so its
// next fetched instruction is sequence number to. The workload stream
// must be trace.Seekable. UnSync recovery uses this to resume the
// erroneous core from the error-free core's architectural position —
// forward if it was behind, re-tracing if it was ahead.
func (c *Core) Restart(to uint64) {
	s, ok := c.stream.(trace.Seekable)
	if !ok {
		//unsync:allow-panic invariant: recovery is only wired onto cores with Seekable workload streams
		panic("pipeline: Restart requires a seekable stream")
	}
	s.Seek(to)

	// Flush every in-flight structure.
	c.head, c.count = 0, 0
	c.unissued = 0
	clear(c.armed)
	clear(c.waiters)
	c.wake = 0
	c.memInROB = 0
	c.storeList.Clear()
	c.fetchQ.Clear()
	c.hasPending = false
	c.waitRedirect = false
	c.curFetchLine = ^uint64(0)
	c.streamDone = false
	for i := range c.regProd {
		c.regProd[i] = -1
		c.regReadyAt[i] = 0
	}

	// Adjust the committed counters to the new position.
	delta := int64(to) - int64(c.position)
	if d := int64(c.Stats.Insts) + delta; d > 0 {
		c.Stats.Insts = uint64(d)
	} else {
		c.Stats.Insts = 0
	}
	c.position = to
}

// Step advances the core by one cycle.
func (c *Core) Step() {
	if c.cycle < c.frozenUntil {
		c.Stats.FrozenCycles++
	} else {
		c.commit()
		c.issue()
		c.dispatch()
		c.fetch()
	}
	c.Stats.ROBOcc.Sample(c.count)
	c.Stats.IQOcc.Sample(c.unissued)
	c.Stats.LSQOcc.Sample(c.memInROB)
	c.cycle++
	c.Stats.Cycles++
}

// NextEvent returns the earliest cycle, at or after Cycle(), at which
// Step could do more than repeat this cycle's stall bookkeeping. A
// cycle is quiet when the core is frozen, or when every stage is idle
// in a way no passing cycle alone can end:
//
//   - commit: the ROB is empty, or its head has not issued or not
//     completed (the commit hooks are never consulted);
//   - issue: the cycle is before wake (IssueGate, a pure predicate, is
//     then irrelevant);
//   - dispatch: the fetch queue is empty, or the ROB, IQ or LSQ blocks
//     its front;
//   - fetch: it is stalled, the fetch queue is full, or the stream is
//     done.
//
// The bound is the earliest of the head's completion, wake, the fetch
// resume cycle and the end of a freeze. A bound earlier than needed is
// harmless (the caller steps a quiet cycle); a later one is a bug.
func (c *Core) NextEvent() uint64 {
	now := c.cycle
	if now < c.frozenUntil {
		return c.frozenUntil
	}
	if now >= c.wake {
		return now
	}
	next := c.wake
	if c.count > 0 {
		if e := &c.rob[c.head]; e.issued {
			if now >= e.complete {
				return now
			}
			next = min(next, e.complete)
		}
	}
	if !c.fetchQ.Empty() && c.dispatchStall() == nil {
		return now
	}
	if !c.streamDone || c.hasPending {
		switch {
		case c.waitRedirect: // only an issue clears it, and wake bounds that
		case now < c.fetchResumeAt:
			next = min(next, c.fetchResumeAt)
		case c.fetchQ.Len() < c.Cfg.FetchQueue:
			return now
		}
	}
	return next
}

// Skip advances the core to cycle to, charging the cycles [Cycle(), to)
// to the same counters as that many Step calls. The caller guarantees
// to ≤ NextEvent(), so every skipped cycle is quiet.
func (c *Core) Skip(to uint64) {
	if to <= c.cycle {
		return
	}
	n := to - c.cycle
	if c.cycle < c.frozenUntil {
		c.Stats.FrozenCycles += n
	} else {
		if c.count == 0 {
			c.Stats.StallEmpty += n
		} else {
			c.Stats.StallExec += n
		}
		if !c.fetchQ.Empty() {
			if stall := c.dispatchStall(); stall != nil {
				*stall += n
			}
		}
		if (!c.streamDone || c.hasPending) && (c.cycle < c.fetchResumeAt || c.waitRedirect) {
			c.Stats.FetchStall += n
		}
	}
	c.Stats.ROBOcc.SampleN(c.count, n)
	c.Stats.IQOcc.SampleN(c.unissued, n)
	c.Stats.LSQOcc.SampleN(c.memInROB, n)
	c.cycle = to
	c.Stats.Cycles += n
}

// ErrCycleBudget is returned by Run when maxCycles elapses first.
var ErrCycleBudget = errors.New("pipeline: cycle budget exhausted")

// Run steps the core until it is done or maxCycles elapse.
func (c *Core) Run(maxCycles uint64) error {
	for !c.Done() {
		if c.cycle >= maxCycles {
			return ErrCycleBudget
		}
		c.Step()
	}
	return nil
}

// ---- commit stage ----

func (c *Core) commit() {
	for n := 0; n < c.Cfg.Width; n++ {
		if c.count == 0 {
			if n == 0 {
				c.Stats.StallEmpty++
			}
			return
		}
		e := &c.rob[c.head]
		if !e.issued || c.cycle < e.complete {
			if n == 0 {
				c.Stats.StallExec++
			}
			return
		}
		if e.rec.Class == isa.ClassMembar && c.DrainEmpty != nil && !c.DrainEmpty(c.cycle) {
			if n == 0 {
				c.Stats.StallGate++
			}
			return
		}
		if c.CommitGate != nil && !c.CommitGate(e.rec, c.cycle) {
			if n == 0 {
				c.Stats.StallGate++
			}
			return
		}
		if n == 0 {
			c.Stats.CommitCycles++
		}

		// Commit actions.
		if e.rec.IsStore() {
			c.Hier.StoreAccess(c.ID, c.cycle, e.rec.Addr)
			c.Stats.Stores++
			if c.storeList.Len() > 0 && *c.storeList.Front() == c.head {
				c.storeList.PopFront()
			}
		}
		if e.rec.IsLoad() {
			c.Stats.Loads++
		}
		if e.rec.Serializing() {
			c.Stats.Serializing++
		}
		if c.OnCommit != nil {
			c.OnCommit(e.rec, c.cycle)
		}
		if d := e.rec.Dst; d >= 0 && c.regProd[d] == c.head && c.regProdSeq[d] == e.rec.Seq {
			c.regProd[d] = -1
			c.regReadyAt[d] = e.complete
		}
		if e.rec.Class == isa.ClassTrap {
			// Traps flush the frontend at commit.
			if r := c.cycle + c.Cfg.TrapFlush; r > c.fetchResumeAt {
				c.fetchResumeAt = r
			}
		}
		if e.rec.IsMem() {
			c.memInROB--
		}
		if c.head++; c.head == c.Cfg.ROBSize {
			c.head = 0
		}
		c.count--
		c.wake = 0
		c.Stats.Insts++
		c.Stats.Retired++
		c.position++
	}
}

// ---- issue/execute stage ----

// srcReady resolves one dependence: ok=false means the producer has not
// issued yet; otherwise at is the cycle the value is available.
func (c *Core) srcReady(dep int, depSeq, readyAt uint64) (at uint64, ok bool) {
	if dep < 0 {
		return readyAt, true
	}
	p := &c.rob[dep]
	if p.rec.Seq != depSeq {
		// Producer has committed (slot reused or freed): value ready.
		return 0, true
	}
	if !p.issued {
		return 0, false
	}
	return p.complete + c.Cfg.BypassDelay, true
}

// never is the wake bound of an entry that only another issue, a
// commit, a dispatch or a Restart can unblock; each of those resets
// the wake itself.
const never = ^uint64(0)

// issue walks the armed entries oldest first and issues up to Width
// of them. A pass that issues nothing changes no state, so when one
// does, it records in wake the earliest cycle any entry could issue
// and later passes are skipped until then.
//
// The walk visits the armed bits of [head, ROBSize) and then of
// [0, head): program order. An entry a producer arms during the pass
// cannot issue in it (every latency is at least one cycle), so whether
// the walk sees it makes no difference; the pass has issued, so wake
// resets anyway.
func (c *Core) issue() {
	if c.IssueGate != nil && !c.IssueGate(c.cycle) {
		return
	}
	if c.cycle < c.wake {
		return
	}
	issued := 0
	wake := never
	lo, hi := c.head, c.Cfg.ROBSize
	for pass := 0; pass < 2 && issued < c.Cfg.Width; pass++ {
		if pass == 1 {
			lo, hi = 0, c.head
		}
		for w := lo >> 6; w<<6 < hi && issued < c.Cfg.Width; w++ {
			word := c.armed[w]
			if w == lo>>6 {
				word &= ^uint64(0) << (lo & 63)
			}
			if end := (w + 1) << 6; end > hi {
				word &= ^uint64(0) >> (end - hi)
			}
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				idx := w<<6 | b
				if at := c.issueOne(idx); at != 0 {
					wake = min(wake, at)
					continue
				}
				c.armed[w] &^= 1 << b
				c.unissued--
				c.wakeWaiters(idx)
				if issued++; issued == c.Cfg.Width {
					break
				}
			}
		}
	}
	if issued > 0 {
		wake = 0
	}
	c.wake = wake
}

// wakeWaiters arms every consumer of the just-issued entry at ROB
// index idx whose operands are now all resolved, and empties idx's
// waiter row.
func (c *Core) wakeWaiters(idx int) {
	row := c.waiters[idx*c.robWords : (idx+1)*c.robWords]
	for w, word := range row {
		if word == 0 {
			continue
		}
		row[w] = 0
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			e := &c.rob[w<<6|b]
			if c.resolved(e.dep1, e.dep1Seq) && c.resolved(e.dep2, e.dep2Seq) {
				c.armed[w] |= 1 << b
			}
		}
	}
}

// resolved reports whether a dependence's producer has issued (or
// committed, freeing its slot).
func (c *Core) resolved(dep int, depSeq uint64) bool {
	if dep < 0 {
		return true
	}
	p := &c.rob[dep]
	return p.issued || p.rec.Seq != depSeq
}

// issueOne tries to issue the unissued entry at ROB index idx this
// cycle. It returns 0 when the entry issued. Otherwise it changes
// nothing and returns the earliest cycle the entry could issue if no
// other event intervenes: its operand-ready time, or cycle+1 when every
// unit of its functional-unit pool is busy. It returns never while an
// operand's producer or an older matching store has not issued, or an
// atomic is not at the ROB head: those wait on another entry's issue
// or on a commit.
func (c *Core) issueOne(idx int) uint64 {
	e := &c.rob[idx]
	r1, ok1 := c.srcReady(e.dep1, e.dep1Seq, e.ready1At)
	r2, ok2 := c.srcReady(e.dep2, e.dep2Seq, e.ready2At)
	if !ok1 || !ok2 {
		return never
	}
	if r := max(r1, r2); r > c.cycle {
		return r
	}
	cl := e.rec.Class
	lat := uint64(isa.Latency(cl))
	var complete uint64

	switch {
	case cl.MemoryOp():
		if cl == isa.ClassAtomic && idx != c.head {
			return never // atomics issue non-speculatively, at ROB head
		}
		if e.rec.IsLoad() || e.rec.IsStore() {
			if e.rec.IsLoad() {
				fwd, wait, found := c.forwardFrom(e.rec)
				if wait {
					return never // older matching store not yet executed
				}
				if !c.memPorts.tryIssue(c.cycle, 1) {
					return c.cycle + 1
				}
				if found {
					complete = max(c.cycle, fwd) + 1
				} else {
					done, _ := c.Hier.LoadAccess(c.ID, c.cycle+1, e.rec.Addr)
					complete = done
				}
				if cl == isa.ClassAtomic {
					complete++ // read-modify-write
				}
			} else { // plain store: address generation only
				if !c.memPorts.tryIssue(c.cycle, 1) {
					return c.cycle + 1
				}
				complete = c.cycle + lat
			}
		}
	case cl == isa.ClassIntMul || cl == isa.ClassIntDiv:
		busy := uint64(1)
		if !isa.Pipelined(cl) {
			busy = lat
		}
		if !c.mul.tryIssue(c.cycle, busy) {
			return c.cycle + 1
		}
		complete = c.cycle + lat
	case cl == isa.ClassFPALU || cl == isa.ClassFPMul || cl == isa.ClassFPDiv:
		busy := uint64(1)
		if !isa.Pipelined(cl) {
			busy = lat
		}
		if !c.fp.tryIssue(c.cycle, busy) {
			return c.cycle + 1
		}
		complete = c.cycle + lat
	default: // ALU, branches, jumps, traps, barriers, nops
		if !c.alu.tryIssue(c.cycle, 1) {
			return c.cycle + 1
		}
		complete = c.cycle + lat
	}

	e.issued = true
	e.complete = complete

	if e.mispredict {
		if r := complete + c.Cfg.BranchPenalty; r > c.fetchResumeAt {
			c.fetchResumeAt = r
		}
		c.waitRedirect = false
	}
	return 0
}

// forwardFrom finds the youngest older in-flight store writing the
// load's 8-byte word. found reports a forwarding match (fwd = cycle the
// data is available); wait reports that a matching store has not
// executed yet, so the load must hold.
func (c *Core) forwardFrom(ld trace.Record) (fwd uint64, wait, found bool) {
	word := ld.Addr &^ 7
	for i := 0; i < c.storeList.Len(); i++ {
		st := &c.rob[*c.storeList.At(i)]
		if st.rec.Seq >= ld.Seq {
			break
		}
		if st.rec.Addr&^7 != word {
			continue
		}
		if !st.issued {
			return 0, true, false
		}
		fwd, found = st.complete, true
	}
	return fwd, false, found
}

// ---- dispatch stage ----

func (c *Core) dispatch() {
	for n := 0; n < c.Cfg.Width; n++ {
		if c.fetchQ.Empty() {
			return
		}
		if stall := c.dispatchStall(); stall != nil {
			if n == 0 {
				*stall++
			}
			return
		}
		f := c.fetchQ.PopFront()

		idx := c.head + c.count
		if idx >= c.Cfg.ROBSize {
			idx -= c.Cfg.ROBSize
		}
		e := entry{rec: f.rec, mispredict: f.mispredict, dep1: -1, dep2: -1}
		if s := f.rec.Src1; s >= 0 {
			if p := c.regProd[s]; p >= 0 {
				e.dep1, e.dep1Seq = p, c.regProdSeq[s]
			} else {
				e.ready1At = c.regReadyAt[s]
			}
		}
		if s := f.rec.Src2; s >= 0 {
			if p := c.regProd[s]; p >= 0 {
				e.dep2, e.dep2Seq = p, c.regProdSeq[s]
			} else {
				e.ready2At = c.regReadyAt[s]
			}
		}
		if d := f.rec.Dst; d >= 0 {
			c.regProd[d] = idx
			c.regProdSeq[d] = f.rec.Seq
		}
		c.rob[idx] = e
		c.count++
		c.unissued++
		w, bit := idx>>6, uint64(1)<<(idx&63)
		armed := true
		for _, dep := range [2]int{e.dep1, e.dep2} {
			if dep >= 0 && !c.rob[dep].issued {
				c.waiters[dep*c.robWords+w] |= bit
				armed = false
			}
		}
		if armed {
			c.armed[w] |= bit
		}
		c.wake = 0
		if f.rec.IsMem() {
			c.memInROB++
			if f.rec.IsStore() {
				c.storeList.PushBack(idx)
			}
		}
		// Note: traps and barriers do not drain dispatch in the baseline
		// core — they flush the frontend at commit (traps) or gate
		// commit on the store path (barriers). The redundancy schemes
		// impose their own, stronger serialization via CommitGate.
	}
}

// dispatchStall returns the counter of the structure that keeps the
// fetch-queue front from dispatching — a full ROB, IQ or (for a memory
// op) LSQ — or nil when it can dispatch. The fetch queue must not be
// empty.
func (c *Core) dispatchStall() *uint64 {
	switch {
	case c.count == c.Cfg.ROBSize:
		return &c.Stats.DispatchStallROB
	case c.unissued == c.Cfg.IQSize:
		return &c.Stats.DispatchStallIQ
	case c.memInROB == c.Cfg.LSQSize && c.fetchQ.Front().rec.IsMem():
		return &c.Stats.DispatchStallLSQ
	}
	return nil
}

// ---- fetch stage ----

func (c *Core) fetch() {
	if c.streamDone && !c.hasPending {
		return
	}
	if c.cycle < c.fetchResumeAt || c.waitRedirect {
		c.Stats.FetchStall++
		return
	}
	for n := 0; n < c.Cfg.Width && c.fetchQ.Len() < c.Cfg.FetchQueue; n++ {
		var rec trace.Record
		if c.hasPending {
			rec = c.pendingFetch
			c.hasPending = false
		} else {
			r, ok := c.stream.Next()
			if !ok {
				c.streamDone = true
				return
			}
			rec = r
		}
		line := rec.PC >> 6
		if line != c.curFetchLine {
			done, _ := c.Hier.FetchAccess(c.ID, c.cycle, rec.PC)
			// Next-line prefetch: sequential fetch misses are hidden on
			// real frontends; model that by touching the following line.
			c.Hier.FetchAccess(c.ID, c.cycle, (line+1)<<6)
			c.curFetchLine = line
			if done > c.cycle+c.Hier.Cfg.L1I.HitLatency {
				c.pendingFetch = rec
				c.hasPending = true
				if done > c.fetchResumeAt {
					c.fetchResumeAt = done
				}
				return
			}
		}
		mispred := false
		if rec.Class == isa.ClassBranch {
			c.Stats.Branches++
			if !c.Pred.Predict(rec.PC, rec.Taken) {
				mispred = true
				c.Stats.Mispredicts++
			}
		}
		c.fetchQ.PushBack(fetched{rec: rec, mispredict: mispred})
		if mispred {
			c.waitRedirect = true
			return
		}
	}
}
