package fault

import (
	"fmt"
	"slices"
	"sort"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/emu"
	"github.com/cmlasu/unsync/internal/isa"
)

// Trace is the golden run of a program, recorded once per campaign and
// shared read-only by every batch kernel call through TrialOpts.Trace.
// It holds what the lane kernels need to know about each golden step
// without emulating it:
//
//   - the commit (pc, data) that Reunion's fingerprint folds, which is
//     everything core B contributes (see batch_reunion.go);
//   - for every committed store, where it wrote and which later access
//     first touches each of its bytes, so a CB flip on that store is
//     known to be read (a load or atomic) or overwritten (a store)
//     before any lane runs;
//   - for every register, the steps that read or write it, so a
//     persistent register flip is known to be read or overwritten.
//
// Until an instruction reads the flipped state, a faulted lane is the
// golden run plus that state, so a flip that is never read classifies
// without emulation and one that is read forks at its first read (the
// fork-at-first-read argument in DESIGN §14). Reads may be
// over-approximated and writes under-approximated: either error only
// forks a lane earlier than needed.
type Trace struct {
	// Golden is the halted fault-free machine (as Golden returns it).
	Golden *emu.Machine

	// commits[t] is the golden commit at step t.
	commits []goldenCommit
	// stores lists the golden run's ClassStore commits in step order.
	stores []traceStore
	// regs[r] lists, in step order, the steps that read or write flat
	// register r (isa.DepReg numbering), a read tagged with readTag. An
	// instruction that both reads and writes r is listed as a read.
	regs [isa.TotalDepRegs][]uint32
}

// goldenCommit is the part of a golden commit that Reunion's
// fingerprint folds.
type goldenCommit struct{ pc, data uint64 }

// traceStore is one golden store: its step, address and width, and for
// each byte j < width the first later step whose access covers that
// byte (0 when none does — no later step is step 0).
type traceStore struct {
	step  uint32
	width uint8
	addr  uint64
	next  [8]uint32
}

// readTag marks a read in Trace.regs.
const readTag = 1 << 31

// maxTraceSteps bounds a recorded golden run: steps are stored as
// uint32 with the top bit reserved for readTag.
const maxTraceSteps = readTag - 1

// RecordTrace runs prog fault-free under the same step budget and
// error contract as Golden, recording its trace. Campaigns call it once
// and hand the trace to every batch through TrialOpts.Trace.
func RecordTrace(prog *asm.Program, maxSteps uint64) (*Trace, error) {
	t := &Trace{}
	type access struct {
		step  uint32
		width uint8
		store bool
		addr  uint64
	}
	var mem []access
	g, err := golden(prog, maxSteps, func(c emu.Commit) {
		if c.Seq >= maxTraceSteps {
			return // rejected below
		}
		step := uint32(c.Seq)
		t.commits = append(t.commits, goldenCommit{c.PC, c.Data})
		cls := c.Inst.Class()
		if cls.MemoryOp() {
			mem = append(mem, access{step, uint8(c.Inst.Op.MemWidth()), cls == isa.ClassStore, c.Addr})
		}
		t.noteRegs(step, c.Inst)
	})
	if err != nil {
		return nil, err
	}
	if g.InstCount > maxTraceSteps {
		return nil, fmt.Errorf("%w: %d steps exceed the trace limit of %d", ErrGoldenFailed, g.InstCount, maxTraceSteps)
	}
	t.Golden = g

	// One backward pass links every store byte to the next access that
	// covers it.
	last := make(map[uint64]uint32)
	for i := len(mem) - 1; i >= 0; i-- {
		a := mem[i]
		if a.store {
			st := traceStore{step: a.step, width: a.width, addr: a.addr}
			for j := range uint64(a.width) {
				st.next[j] = last[a.addr+j]
			}
			t.stores = append(t.stores, st)
		}
		for j := range uint64(a.width) {
			last[a.addr+j] = a.step
		}
	}
	slices.Reverse(t.stores)
	return t, nil
}

// noteRegs records the register reads and writes of the instruction
// committed at step. SYSCALL reads its selector r2 and both print
// operands, r4 and f12, whichever service runs.
func (t *Trace) noteRegs(step uint32, in isa.Inst) {
	var src [3]int
	if in.Op == isa.SYSCALL {
		src = [3]int{2, 4, isa.NumRegs + 12}
	} else {
		src[0], src[1] = in.SrcRegs()
		src[2] = -1
	}
	dst := in.DestReg()
	for _, r := range src {
		if r < 0 {
			continue
		}
		t.regs[r] = append(t.regs[r], step|readTag)
		if r == dst {
			dst = -1
		}
	}
	if dst >= 0 {
		t.regs[dst] = append(t.regs[dst], step)
	}
}

// cbFork resolves an undetected CB flip struck at step s, as
// RunUnSyncTrial lands it: on the first store at or after s within
// budget steps, flipping bit Bit mod 8w of the stored word. It returns
// the step of the first load or atomic that reads the flipped byte,
// with that byte's address and XOR mask; ok is false when the flip
// never lands, is overwritten by a store, or is never read — the lane
// then runs golden to the end.
func (t *Trace) cbFork(s uint64, bit uint8, budget uint64) (fork, addr uint64, mask byte, ok bool) {
	k := sort.Search(len(t.stores), func(i int) bool { return uint64(t.stores[i].step) >= s })
	if k == len(t.stores) || uint64(t.stores[k].step)-s >= budget {
		return 0, 0, 0, false
	}
	st := &t.stores[k]
	b := uint(bit) % (8 * uint(st.width))
	next := st.next[b/8]
	if next == 0 || t.Golden.Prog[t.commits[next].pc/4].Class() == isa.ClassStore {
		return 0, 0, 0, false
	}
	return uint64(next), st.addr + uint64(b/8), 1 << (b % 8), true
}

// firstRead returns the first step at or after from that reads flat
// register r; ok is false when r is written first or never touched
// again, so a flip of r landing before from is never read.
func (t *Trace) firstRead(r int, from uint64) (step uint64, ok bool) {
	ev := t.regs[r]
	i := sort.Search(len(ev), func(i int) bool { return uint64(ev[i]&^readTag) >= from })
	if i == len(ev) || ev[i]&readTag == 0 {
		return 0, false
	}
	return uint64(ev[i] &^ readTag), true
}

// trace returns the campaign's trace, or records one when the caller
// supplied none.
func (o TrialOpts) trace(prog *asm.Program) (*Trace, error) {
	if o.Trace != nil {
		return o.Trace, nil
	}
	return RecordTrace(prog, o.MaxSteps)
}
