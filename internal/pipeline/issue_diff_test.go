package pipeline

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/cmlasu/unsync/internal/isa"
	"github.com/cmlasu/unsync/internal/mem"
	"github.com/cmlasu/unsync/internal/stats"
	"github.com/cmlasu/unsync/internal/trace"
)

// refIssue is the linear-scan issue stage that the wake-gated walk
// over the armed bitmap replaced, kept as the differential reference.
// Every cycle it visits all count ROB entries oldest first, skips the
// issued ones and re-checks operand readiness for the rest. It keeps
// c.unissued in step, because dispatch and the occupancy sample read
// it, and never reads c.wake or the armed and waiter bitmaps (dispatch
// still writes them; the reference leaves them stale).
func refIssue(c *Core) {
	if c.IssueGate != nil && !c.IssueGate(c.cycle) {
		return
	}
	issued := 0
	for i := 0; i < c.count && issued < c.Cfg.Width; i++ {
		idx := (c.head + i) % c.Cfg.ROBSize
		e := &c.rob[idx]
		if e.issued {
			continue
		}
		r1, ok := c.srcReady(e.dep1, e.dep1Seq, e.ready1At)
		if !ok || r1 > c.cycle {
			continue
		}
		r2, ok := c.srcReady(e.dep2, e.dep2Seq, e.ready2At)
		if !ok || r2 > c.cycle {
			continue
		}

		cl := e.rec.Class
		lat := uint64(isa.Latency(cl))
		var complete uint64

		switch {
		case cl.MemoryOp():
			if cl == isa.ClassAtomic && idx != c.head {
				continue // atomics issue non-speculatively, at ROB head
			}
			if e.rec.IsLoad() || e.rec.IsStore() {
				if e.rec.IsLoad() {
					fwd, wait, found := c.forwardFrom(e.rec)
					if wait {
						continue // older matching store not yet executed
					}
					if !c.memPorts.tryIssue(c.cycle, 1) {
						continue
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
						continue
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
				continue
			}
			complete = c.cycle + lat
		case cl == isa.ClassFPALU || cl == isa.ClassFPMul || cl == isa.ClassFPDiv:
			busy := uint64(1)
			if !isa.Pipelined(cl) {
				busy = lat
			}
			if !c.fp.tryIssue(c.cycle, busy) {
				continue
			}
			complete = c.cycle + lat
		default: // ALU, branches, jumps, traps, barriers, nops
			if !c.alu.tryIssue(c.cycle, 1) {
				continue
			}
			complete = c.cycle + lat
		}

		e.issued = true
		e.complete = complete
		refDropIQ(c, idx)
		issued++

		if e.mispredict {
			if r := complete + c.Cfg.BranchPenalty; r > c.fetchResumeAt {
				c.fetchResumeAt = r
			}
			c.waitRedirect = false
		}
	}
}

// refDropIQ accounts for the issue of ROB index idx in the unissued
// counter.
func refDropIQ(c *Core, idx int) {
	if c.unissued == 0 {
		panic(fmt.Sprintf("refIssue: ROB index %d issued with no unissued entry counted", idx))
	}
	c.unissued--
}

// refStep is Core.Step with refIssue in place of issue.
func refStep(c *Core) {
	if c.cycle < c.frozenUntil {
		c.Stats.FrozenCycles++
	} else {
		c.commit()
		refIssue(c)
		c.dispatch()
		c.fetch()
	}
	c.Stats.ROBOcc.Sample(c.count)
	c.Stats.IQOcc.Sample(c.unissued)
	c.Stats.LSQOcc.Sample(c.memInROB)
	c.cycle++
	c.Stats.Cycles++
}

// coreScalars is the scalar part of the per-cycle state the two cores
// must agree on.
type coreScalars struct {
	cycle, position, fetchResumeAt, frozenUntil uint64
	head, count, memInROB, stores, unissued     int
	waitRedirect, hasPending, streamDone        bool
	stats                                       Stats // occupancy pointers cleared
	rob, iq, lsq                                stats.Occupancy
}

func scalarsOf(c *Core) coreScalars {
	s := coreScalars{
		cycle: c.cycle, position: c.position, fetchResumeAt: c.fetchResumeAt, frozenUntil: c.frozenUntil,
		head: c.head, count: c.count, memInROB: c.memInROB, stores: c.storeList.Len(), unissued: c.unissued,
		waitRedirect: c.waitRedirect, hasPending: c.hasPending, streamDone: c.streamDone,
		stats: c.Stats,
		rob:   *c.Stats.ROBOcc, iq: *c.Stats.IQOcc, lsq: *c.Stats.LSQOcc,
	}
	s.stats.ROBOcc, s.stats.IQOcc, s.stats.LSQOcc = nil, nil, nil
	return s
}

// stateDiff names the first part of the per-cycle state where the two
// cores differ, or returns "" when they agree.
func stateDiff(a, b *Core) string {
	if sa, sb := scalarsOf(a), scalarsOf(b); sa != sb {
		return fmt.Sprintf("scalars:\n got %+v\nwant %+v", sa, sb)
	}
	if !slices.Equal(a.rob, b.rob) {
		return "ROB entries"
	}
	for i := 0; i < a.storeList.Len(); i++ {
		if *a.storeList.At(i) != *b.storeList.At(i) {
			return "store list"
		}
	}
	for i, fa := range []*fuPool{a.alu, a.mul, a.fp, a.memPorts} {
		if fb := []*fuPool{b.alu, b.mul, b.fp, b.memPorts}[i]; !slices.Equal(fa.freeAt, fb.freeAt) {
			return fmt.Sprintf("functional unit pool %d", i)
		}
	}
	return ""
}

// bitmapDiff checks the armed and waiter bitmaps of c against the ROB
// they summarize, and names the first disagreement, or returns "". An
// in-flight unissued entry is armed exactly when every producer has
// issued; it sits in exactly the waiter rows of its unissued
// producers; every other bit is clear. armed and waiters are scratch
// bitmaps of c's shapes.
func bitmapDiff(c *Core, armed, waiters []uint64) string {
	clear(armed)
	clear(waiters)
	for i := 0; i < c.count; i++ {
		idx := (c.head + i) % c.Cfg.ROBSize
		e := &c.rob[idx]
		if e.issued {
			continue
		}
		w, bit := idx>>6, uint64(1)<<(idx&63)
		if c.resolved(e.dep1, e.dep1Seq) && c.resolved(e.dep2, e.dep2Seq) {
			armed[w] |= bit
		}
		if !c.resolved(e.dep1, e.dep1Seq) {
			waiters[e.dep1*c.robWords+w] |= bit
		}
		if !c.resolved(e.dep2, e.dep2Seq) {
			waiters[e.dep2*c.robWords+w] |= bit
		}
	}
	if !slices.Equal(c.armed, armed) {
		return fmt.Sprintf("armed bitmap %x, want %x", c.armed, armed)
	}
	if !slices.Equal(c.waiters, waiters) {
		for idx := range c.rob {
			row := func(bm []uint64) []uint64 { return bm[idx*c.robWords : (idx+1)*c.robWords] }
			if got, want := row(c.waiters), row(waiters); !slices.Equal(got, want) {
				return fmt.Sprintf("waiter row of ROB index %d = %x, want %x", idx, got, want)
			}
		}
	}
	return ""
}

// splitmix64 is the test's deterministic generator.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// upto returns a value in [lo, hi].
func (s *splitmix64) upto(lo, hi uint64) uint64 { return lo + s.next()%(hi-lo+1) }

// diffCase is one lockstep run: a core geometry, a workload and the
// external events both cores see at the same cycles.
type diffCase struct {
	cfg   Config
	prof  int // index into trace.Benchmarks(); out of range: synthetic mix
	seed  uint64
	insts uint64

	freezeAt, freezeLen uint64 // FreezeUntil(freezeAt+freezeLen) at freezeAt; 0: none
	restartAt           uint64 // Restart at this cycle; 0: none
	restartDelta        int64  // Restart target relative to the committed position

	issuePeriod, commitPeriod uint64 // gate toggling periods; 0: no gate
}

// decodeDiffCase derives a case from fuzz input. geom 0 selects the
// Table I core with no external events.
func decodeDiffCase(seed, geom uint64) diffCase {
	n := uint64(len(trace.Benchmarks()))
	dc := diffCase{cfg: DefaultConfig(), prof: int(seed % (n + 2)), seed: seed, insts: 3_000}
	if geom == 0 {
		return dc
	}
	r := splitmix64(geom)
	cfg := &dc.cfg
	cfg.Width = int(r.upto(1, 4))
	cfg.ROBSize = int(r.upto(uint64(cfg.Width), 128))
	cfg.IQSize = int(r.upto(1, 64))
	cfg.LSQSize = int(r.upto(1, 64))
	cfg.FetchQueue = int(r.upto(uint64(cfg.Width), 16))
	cfg.IntALUs = int(r.upto(1, 4))
	cfg.IntMuls = 1 // one unit, unpipelined for divides
	cfg.FPUs = int(r.upto(1, 2))
	cfg.MemPorts = int(r.upto(1, 2))
	if r.next()%2 == 1 {
		cfg.BypassDelay = r.upto(1, 12)
	}
	if r.next()%2 == 1 {
		dc.freezeAt, dc.freezeLen = r.upto(1, 4_000), r.upto(1, 300)
	}
	if r.next()%2 == 1 {
		dc.restartAt = r.upto(1, 6_000)
		dc.restartDelta = int64(r.upto(0, 400)) - 200
	}
	if r.next()%2 == 1 {
		dc.issuePeriod = r.upto(2, 40)
	}
	if r.next()%2 == 1 {
		dc.commitPeriod = r.upto(2, 40)
	}
	return dc
}

// syntheticMix is a dense random instruction mix over a small data
// footprint, so store forwarding, atomics and divides are frequent.
func syntheticMix(seed uint64, n int) []trace.Record {
	classes := []isa.Class{
		isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv, isa.ClassFPALU,
		isa.ClassFPMul, isa.ClassFPDiv, isa.ClassLoad, isa.ClassStore,
		isa.ClassBranch, isa.ClassJump, isa.ClassTrap, isa.ClassMembar,
		isa.ClassAtomic, isa.ClassNop,
	}
	r := splitmix64(seed)
	recs := make([]trace.Record, n)
	for i := range recs {
		cl := classes[r.next()%uint64(len(classes))]
		rec := trace.Record{Class: cl, Dst: -1, Src1: -1, Src2: -1,
			Seq: uint64(i), PC: 0x4000 + uint64(i%64)*4}
		reg := func() int8 { return int8(1 + r.next()%12) }
		switch {
		case cl.MemoryOp():
			rec.Addr = 0x100000 + (r.next()%64)*8
			rec.Src1 = reg()
			if cl != isa.ClassStore {
				rec.Dst = reg()
			} else {
				rec.Src2 = reg()
			}
		case cl == isa.ClassBranch:
			rec.Taken = r.next()%3 != 0
			rec.Src1 = reg()
		case cl == isa.ClassIntALU, cl == isa.ClassIntMul, cl == isa.ClassIntDiv:
			rec.Dst, rec.Src1, rec.Src2 = reg(), reg(), reg()
		case cl == isa.ClassFPALU, cl == isa.ClassFPMul, cl == isa.ClassFPDiv:
			rec.Dst, rec.Src1, rec.Src2 = int8(33+r.next()%8), int8(33+r.next()%8), reg()
		}
		recs[i] = rec
	}
	return recs
}

// fanoutMix repeats a block of one long-latency producer followed by
// a run of consumers of its result, so one waiter row holds many bits
// (across bitmap words, on a large ROB) and one issue arms them all.
func fanoutMix(seed uint64, n int) []trace.Record {
	r := splitmix64(seed)
	recs := make([]trace.Record, n)
	for i := 0; i < n; {
		producer := []isa.Class{isa.ClassIntDiv, isa.ClassFPDiv, isa.ClassLoad}[r.next()%3]
		fan := int(r.upto(8, 120))
		for j := 0; j <= fan && i < n; j++ {
			rec := trace.Record{Class: isa.ClassIntALU, Dst: int8(2 + r.next()%10), Src1: 1, Src2: -1,
				Seq: uint64(i), PC: 0x4000 + uint64(i%64)*4}
			if j == 0 {
				rec.Class, rec.Dst, rec.Src1 = producer, 1, -1
				if producer == isa.ClassLoad {
					rec.Addr = 0x100000 + (r.next()%4096)*64
				}
			} else if r.next()%4 == 0 {
				rec.Src2 = int8(2 + r.next()%10) // a second, younger producer
			}
			recs[i] = rec
			i++
		}
	}
	return recs
}

func (dc diffCase) stream() trace.Stream {
	bs := trace.Benchmarks()
	switch {
	case dc.prof < len(bs):
		return trace.NewLimit(trace.NewGenerator(bs[dc.prof].Reseeded(dc.seed)), dc.insts)
	case dc.prof == len(bs):
		return trace.NewSliceStream(syntheticMix(dc.seed, int(dc.insts)))
	}
	return trace.NewSliceStream(fanoutMix(dc.seed, int(dc.insts)))
}

func (dc diffCase) core() *Core {
	c := NewCore(dc.cfg, 0, mem.NewHierarchy(mem.DefaultConfig(), 1), dc.stream())
	if p := dc.issuePeriod; p > 0 {
		c.IssueGate = func(cycle uint64) bool { return cycle%p >= p/3 }
	}
	if p := dc.commitPeriod; p > 0 {
		c.CommitGate = func(_ trace.Record, cycle uint64) bool { return (cycle/p)%3 != 0 }
	}
	return c
}

// runLockstep steps the event-driven core and the linear-scan
// reference side by side and fails at the first cycle their state
// differs, then compares the final statistics and memory hierarchies.
func runLockstep(t *testing.T, dc diffCase) {
	t.Helper()
	got, want := dc.core(), dc.core()
	armed, waiters := make([]uint64, len(got.armed)), make([]uint64, len(got.waiters))
	const budget = 2_000_000
	for !(got.Done() && want.Done()) {
		if got.cycle >= budget {
			t.Fatalf("%+v: no drain within %d cycles", dc, budget)
		}
		if cy := got.cycle; cy > 0 {
			if cy == dc.freezeAt {
				got.FreezeUntil(cy + dc.freezeLen)
				want.FreezeUntil(cy + dc.freezeLen)
			}
			if cy == dc.restartAt {
				to := max(int64(got.Position())+dc.restartDelta, 0)
				got.Restart(uint64(to))
				want.Restart(uint64(to))
			}
		}
		got.Step()
		refStep(want)
		if d := stateDiff(got, want); d != "" {
			t.Fatalf("%+v: state diverged at cycle %d: %s", dc, want.cycle-1, d)
		}
		if d := bitmapDiff(got, armed, waiters); d != "" {
			t.Fatalf("%+v: issue bitmaps wrong after cycle %d: %s", dc, got.cycle-1, d)
		}
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("%+v: final stats differ:\n got %+v\nwant %+v", dc, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Hier, want.Hier) {
		t.Fatalf("%+v: memory hierarchies differ", dc)
	}
}

// FuzzIssueStageMatchesLinearScan pins the wake-gated, bitmap-driven
// issue stage to the linear-scan reference, cycle by cycle, over random
// core geometries, bypass delays, freezes, restarts and toggling gates,
// and checks the armed and waiter bitmaps against the ROB every cycle.
// The seed corpus runs every built-in profile, the synthetic mix and
// the fan-out mix on the Table I core and on one random geometry each,
// and the two mixes on ROB sizes either side of a 64-bit word.
func FuzzIssueStageMatchesLinearScan(f *testing.F) {
	n := len(trace.Benchmarks())
	for i := 0; i <= n+1; i++ {
		f.Add(uint64(i), uint64(0), uint8(0))
		f.Add(uint64(i), uint64(i)*0x9e3779b97f4a7c15+1, uint8(0))
	}
	for _, rob := range []uint8{63, 64, 65, 127, 129} {
		f.Add(uint64(n), uint64(0), rob)
		f.Add(uint64(n+1), uint64(0), rob)
		f.Add(uint64(n+1), uint64(rob)*0x9e3779b97f4a7c15+1, rob)
	}
	f.Fuzz(func(t *testing.T, seed, geom uint64, rob uint8) {
		dc := decodeDiffCase(seed, geom)
		if rob > 0 { // override the ROB size, raised to the width if below it
			dc.cfg.ROBSize = max(int(rob), dc.cfg.Width)
		}
		runLockstep(t, dc)
	})
}
