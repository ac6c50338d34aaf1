package emu

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/cmlasu/unsync/internal/isa"
)

// lineBits sets the copy-on-write granularity of lane memory: 64-byte
// lines, so a line never straddles a base page.
const (
	lineBits = 6
	lineSize = 1 << lineBits
)

type line [lineSize]byte

// lineRef is one entry of an overlay's line table: the lane's view of
// the line with tag addr>>lineBits. A shared line may be referenced by
// other lanes of the batch as well and is copied before the lane first
// writes it.
type lineRef struct {
	tag    uint64
	ln     *line
	shared bool
}

// lineSlab hands out the lines of one Lanes batch. Each chunk is as
// large as everything handed out before it, so the slab doubles with
// what the batch actually writes instead of reserving a fixed block
// per batch.
type lineSlab struct {
	free []line
	used int
}

// minSlabChunk is the first chunk's size in lines.
const minSlabChunk = 4

func (s *lineSlab) alloc() *line {
	if len(s.free) == 0 {
		s.free = make([]line, max(minSlabChunk, s.used))
	}
	ln := &s.free[0]
	s.free = s.free[1:]
	s.used++
	return ln
}

// Overlay is a per-lane copy-on-write view over a shared base memory.
// The base is the program's immutable initial image (one per decoded
// program). The lane's writes land in 64-byte lines listed in a small
// table by line tag; anything not in the table reads through to the
// base, so B trial lanes share one data image instead of holding B
// clones. The table is two sorted runs: a prefix, and a tail that new
// lines are inserted into and that merges into the prefix once it
// outgrows both tailMin and the square root of the prefix. A lane that
// walks through memory (a runaway stack pointer, say) so pays about
// √n moves per new line rather than the n of one sorted table.
// Lanes.Fork copies the table and marks every entry shared in both
// lanes; whichever lane writes a shared line first copies its 64
// bytes. Lines come from the owning Lanes' slab. An Overlay must not
// be copied: fork it with Lanes.Fork.
type Overlay struct {
	base  *Memory
	slab  *lineSlab
	lines []lineRef
	// sorted is the length of the table's prefix run; spill holds the
	// tail while merge runs.
	sorted int
	spill  []lineRef

	// undo journals every Write while journal is on (from Mark to
	// Release), so Rewind can return to any mark.
	undo    []storeUndo
	journal bool
}

// storeUndo is one journaled Write: the width bytes at addr it
// overwrote, little-endian.
type storeUndo struct {
	addr  uint64
	old   uint64
	width uint8
}

// tailMin is the tail length below which an overlay never merges.
const tailMin = 16

// find returns the table index of the line with tag, or the index in
// the tail at which it would be inserted and false.
func (o *Overlay) find(tag uint64) (int, bool) {
	if k, ok := searchLines(o.lines[:o.sorted], tag); ok {
		return k, true
	}
	k, ok := searchLines(o.lines[o.sorted:], tag)
	return o.sorted + k, ok
}

// searchLines binary-searches a sorted run of the table for tag.
func searchLines(lines []lineRef, tag uint64) (int, bool) {
	lo, hi := 0, len(lines)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lines[m].tag < tag {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(lines) && lines[lo].tag == tag
}

// merge merges the tail into the sorted prefix, from the back so no
// entry moves twice.
func (o *Overlay) merge() {
	o.spill = append(o.spill[:0], o.lines[o.sorted:]...)
	t := o.spill
	i, j := o.sorted-1, len(t)-1
	for k := len(o.lines) - 1; j >= 0; k-- {
		if i >= 0 && o.lines[i].tag > t[j].tag {
			o.lines[k] = o.lines[i]
			i--
		} else {
			o.lines[k] = t[j]
			j--
		}
	}
	o.sorted = len(o.lines)
}

// Read returns width bytes at addr as a little-endian unsigned
// integer, mirroring Memory.Read (width 1, 2, 4 or 8). An access
// inside one line costs one table lookup; one that straddles a line
// reads byte by byte.
func (o *Overlay) Read(addr uint64, width int) uint64 {
	off := int(addr & (lineSize - 1))
	if off+width > lineSize {
		var v uint64
		for i := 0; i < width; i++ {
			v |= o.Read(addr+uint64(i), 1) << (8 * i)
		}
		return v
	}
	if k, ok := o.find(addr >> lineBits); ok {
		return loadLE(o.lines[k].ln[off:], width)
	}
	if p := o.base.page(addr, false); p != nil {
		return loadLE(p[addr&(pageSize-1):], width)
	}
	return 0
}

// Write stores the low width bytes of v at addr, mirroring
// Memory.Write. While journaling (see Mark) the bytes it overwrites
// are recorded first.
func (o *Overlay) Write(addr uint64, v uint64, width int) {
	if o.journal {
		o.undo = append(o.undo, storeUndo{addr: addr, old: o.Read(addr, width), width: uint8(width)})
	}
	o.store(addr, v, width)
}

// store writes without journaling; a write that straddles a line
// stores byte by byte.
func (o *Overlay) store(addr uint64, v uint64, width int) {
	off := int(addr & (lineSize - 1))
	if off+width > lineSize {
		for i := 0; i < width; i++ {
			o.store(addr+uint64(i), v>>(8*i), 1)
		}
		return
	}
	storeLE(o.private(addr >> lineBits)[off:], v, width)
}

// private returns the lane's own copy of the line with tag: a shared
// line is copied first, and a line not yet in the table is filled from
// the base and inserted.
func (o *Overlay) private(tag uint64) *line {
	k, ok := o.find(tag)
	if ok {
		e := &o.lines[k]
		if e.shared {
			ln := o.slab.alloc()
			*ln = *e.ln
			e.ln, e.shared = ln, false
		}
		return e.ln
	}
	ln := o.slab.alloc()
	if p := o.base.page(tag<<lineBits, false); p != nil {
		off := (tag << lineBits) & (pageSize - 1)
		copy(ln[:], p[off:off+lineSize])
	}
	o.lines = append(o.lines, lineRef{})
	copy(o.lines[k+1:], o.lines[k:])
	o.lines[k] = lineRef{tag: tag, ln: ln}
	if t := len(o.lines) - o.sorted; t >= tailMin && t*t > o.sorted {
		o.merge()
	}
	return ln
}

// loadLE reads width (1, 2, 4 or 8) little-endian bytes from b.
func loadLE(b []byte, width int) uint64 {
	switch width {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	}
	return binary.LittleEndian.Uint64(b)
}

// storeLE writes the low width (1, 2, 4 or 8) bytes of v to b,
// little-endian.
func storeLE(b []byte, v uint64, width int) {
	switch width {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// Mark returns the current position of the overlay's undo journal,
// switching journaling on if it is off: from here on every Write
// records the bytes it overwrites, and Rewind(m) returns the overlay to
// its state at the Mark that returned m. Marks nest, so a checkpoint
// costs nothing and a rollback costs the stores since it — the image
// is never copied.
func (o *Overlay) Mark() int {
	o.journal = true
	return len(o.undo)
}

// Rewind undoes every Write journaled after mark m, newest first, by
// storing the recorded bytes back (copying any line shared since).
// Every byte reads as it did at the mark; lines first written after
// the mark stay in the table, holding their base contents again.
func (o *Overlay) Rewind(m int) {
	for k := len(o.undo) - 1; k >= m; k-- {
		u := &o.undo[k]
		o.store(u.addr, u.old, int(u.width))
	}
	o.undo = o.undo[:m]
}

// Release switches journaling off and forgets the journal; the
// overlay keeps its current contents.
func (o *Overlay) Release() {
	o.undo = o.undo[:0]
	o.journal = false
}

// forkFrom makes o a copy-on-write fork of src: it takes src's line
// table and both tables mark every line shared, so the cost is one
// table entry per line src holds, not the memory image. The fork does
// not journal until it is marked.
func (o *Overlay) forkFrom(src *Overlay) {
	for k := range src.lines {
		src.lines[k].shared = true
	}
	o.lines = append(o.lines[:0], src.lines...)
	o.sorted = src.sorted
	o.undo = o.undo[:0]
	o.journal = false
}

// Dirty returns the number of lines in the lane's table — written by
// the lane or inherited through Fork (for stats and tests).
func (o *Overlay) Dirty() int { return len(o.lines) }

// Lanes is a batch of B architectural states executing one shared
// program in lockstep: the structure-of-arrays counterpart of
// Machine. Register files are stored as per-register columns
// (Regs[r][lane]), so state shared by a step — the instruction, its
// decode, its class and width — is fetched once for the whole batch
// while per-lane values stay a column index apart.
//
// Lanes executing the same control-flow path are stepped through
// StepShared with a pre-fetched instruction; a lane whose PC departs
// the shared path falls back to Step, which fetches from the lane's
// own PC with scalar Machine semantics.
type Lanes struct {
	d *Decoded

	// Regs and FRegs hold per-register columns: Regs[r][lane].
	Regs  [isa.NumRegs][]uint64
	FRegs [isa.NumRegs][]uint64

	PC        []uint64
	Halted    []bool
	InstCount []uint64

	// Output collects each lane's SysPrint* values.
	Output [][]uint64

	// Mem is each lane's copy-on-write view of the shared initial
	// image.
	Mem []Overlay

	// slab backs every lane's private lines.
	slab lineSlab
}

// NewLanes returns n reset lanes over the shared decode: PC 0, zero
// registers, and the program's initial data image.
func NewLanes(d *Decoded, n int) *Lanes {
	l := &Lanes{
		d:         d,
		PC:        make([]uint64, n),
		Halted:    make([]bool, n),
		InstCount: make([]uint64, n),
		Output:    make([][]uint64, n),
		Mem:       make([]Overlay, n),
	}
	// One backing array per register file keeps the columns contiguous.
	ints := make([]uint64, isa.NumRegs*n)
	fps := make([]uint64, isa.NumRegs*n)
	for r := 0; r < isa.NumRegs; r++ {
		l.Regs[r] = ints[r*n : (r+1)*n : (r+1)*n]
		l.FRegs[r] = fps[r*n : (r+1)*n : (r+1)*n]
	}
	for i := 0; i < n; i++ {
		l.Mem[i] = Overlay{base: d.image, slab: &l.slab}
	}
	return l
}

// Len returns the number of lanes.
func (l *Lanes) Len() int { return len(l.PC) }

// Fork copies lane src's architectural state into lane dst: registers,
// PC, halt flag, instruction count, output prefix, and a copy-on-write
// fork of the memory overlay (see Overlay).
func (l *Lanes) Fork(dst, src int) {
	for r := 0; r < isa.NumRegs; r++ {
		l.Regs[r][dst] = l.Regs[r][src]
		l.FRegs[r][dst] = l.FRegs[r][src]
	}
	l.PC[dst] = l.PC[src]
	l.Halted[dst] = l.Halted[src]
	l.InstCount[dst] = l.InstCount[src]
	//unsync:allow-alloc fork runs once per lane, outside the step loop; the copy is bounded by the source output length
	l.Output[dst] = append(l.Output[dst][:0], l.Output[src]...)
	l.Mem[dst].forkFrom(&l.Mem[src])
}

// Step executes one instruction on lane i, fetching from the lane's
// own PC — the scalar path for lanes that have diverged from the
// shared trace. Stepping a halted lane is a no-op.
func (l *Lanes) Step(i int) (Commit, error) {
	if l.Halted[i] {
		return Commit{}, nil
	}
	pc := l.PC[i]
	idx := pc / 4
	if pc%4 != 0 || idx >= uint64(len(l.d.Insts)) {
		return Commit{}, fmt.Errorf("%w: pc=%#x", ErrNoProgram, pc)
	}
	return l.step(i, l.d.Insts[idx], l.d.Class[idx], int(l.d.Width[idx]))
}

// StepShared executes one instruction on lane i using a pre-fetched
// decode — the lockstep path. The caller guarantees l.PC[i] equals the
// PC the instruction was fetched from; idx is the instruction index
// (PC/4).
func (l *Lanes) StepShared(i int, idx int) (Commit, error) {
	return l.step(i, l.d.Insts[idx], l.d.Class[idx], int(l.d.Width[idx]))
}

// step mirrors Machine.Step exactly, operating on lane i's columns.
// Any semantic change here must be made in Machine.Step too; the
// differential fuzz test in lanes_test.go pins the equivalence.
func (l *Lanes) step(i int, in isa.Inst, cls isa.Class, w int) (Commit, error) {
	pc := l.PC[i]
	c := Commit{Seq: l.InstCount[i], PC: pc, Inst: in, NextPC: pc + 4}

	rs1 := l.Regs[in.Rs1][i]

	switch in.Op {
	case isa.NOP:

	case isa.ADD:
		l.setReg(i, in.Rd, rs1+l.Regs[in.Rs2][i])
	case isa.SUB:
		l.setReg(i, in.Rd, rs1-l.Regs[in.Rs2][i])
	case isa.AND:
		l.setReg(i, in.Rd, rs1&l.Regs[in.Rs2][i])
	case isa.OR:
		l.setReg(i, in.Rd, rs1|l.Regs[in.Rs2][i])
	case isa.XOR:
		l.setReg(i, in.Rd, rs1^l.Regs[in.Rs2][i])
	case isa.NOR:
		l.setReg(i, in.Rd, ^(rs1 | l.Regs[in.Rs2][i]))
	case isa.SLT:
		l.setReg(i, in.Rd, b2u(int64(rs1) < int64(l.Regs[in.Rs2][i])))
	case isa.SLTU:
		l.setReg(i, in.Rd, b2u(rs1 < l.Regs[in.Rs2][i]))
	case isa.SLL:
		l.setReg(i, in.Rd, rs1<<(l.Regs[in.Rs2][i]&63))
	case isa.SRL:
		l.setReg(i, in.Rd, rs1>>(l.Regs[in.Rs2][i]&63))
	case isa.SRA:
		l.setReg(i, in.Rd, uint64(int64(rs1)>>(l.Regs[in.Rs2][i]&63)))
	case isa.MUL:
		l.setReg(i, in.Rd, rs1*l.Regs[in.Rs2][i])
	case isa.MULH:
		l.setReg(i, in.Rd, mulh(int64(rs1), int64(l.Regs[in.Rs2][i])))
	case isa.DIV:
		l.setReg(i, in.Rd, sdiv(int64(rs1), int64(l.Regs[in.Rs2][i])))
	case isa.REM:
		l.setReg(i, in.Rd, srem(int64(rs1), int64(l.Regs[in.Rs2][i])))

	case isa.ADDI:
		l.setReg(i, in.Rd, rs1+uint64(in.Imm))
	case isa.ANDI:
		l.setReg(i, in.Rd, rs1&uint64(in.Imm))
	case isa.ORI:
		l.setReg(i, in.Rd, rs1|uint64(in.Imm))
	case isa.XORI:
		l.setReg(i, in.Rd, rs1^uint64(in.Imm))
	case isa.SLTI:
		l.setReg(i, in.Rd, b2u(int64(rs1) < in.Imm))
	case isa.SLLI:
		l.setReg(i, in.Rd, rs1<<(uint64(in.Imm)&63))
	case isa.SRLI:
		l.setReg(i, in.Rd, rs1>>(uint64(in.Imm)&63))
	case isa.SRAI:
		l.setReg(i, in.Rd, uint64(int64(rs1)>>(uint64(in.Imm)&63)))
	case isa.LUI:
		l.setReg(i, in.Rd, uint64(in.Imm)<<16)

	case isa.LB, isa.LH, isa.LW, isa.LD:
		c.Addr = rs1 + uint64(in.Imm)
		v := l.Mem[i].Read(c.Addr, w)
		v = signExtend(v, w)
		c.Data = v
		l.setReg(i, in.Rd, v)
	case isa.LBU, isa.LHU, isa.LWU:
		c.Addr = rs1 + uint64(in.Imm)
		v := l.Mem[i].Read(c.Addr, w)
		c.Data = v
		l.setReg(i, in.Rd, v)
	case isa.FLD:
		c.Addr = rs1 + uint64(in.Imm)
		c.Data = l.Mem[i].Read(c.Addr, 8)
		l.FRegs[in.Rd][i] = c.Data
	case isa.SB, isa.SH, isa.SW, isa.SD:
		c.Addr = rs1 + uint64(in.Imm)
		c.Data = l.Regs[in.Rs2][i]
		l.Mem[i].Write(c.Addr, c.Data, w)
	case isa.FSD:
		c.Addr = rs1 + uint64(in.Imm)
		c.Data = l.FRegs[in.Rs2][i]
		l.Mem[i].Write(c.Addr, c.Data, 8)

	case isa.BEQ:
		c.Taken = rs1 == l.Regs[in.Rs2][i]
	case isa.BNE:
		c.Taken = rs1 != l.Regs[in.Rs2][i]
	case isa.BLT:
		c.Taken = int64(rs1) < int64(l.Regs[in.Rs2][i])
	case isa.BGE:
		c.Taken = int64(rs1) >= int64(l.Regs[in.Rs2][i])
	case isa.BLTU:
		c.Taken = rs1 < l.Regs[in.Rs2][i]
	case isa.BGEU:
		c.Taken = rs1 >= l.Regs[in.Rs2][i]

	case isa.J:
		c.Taken = true
		c.NextPC = uint64(in.Imm)
	case isa.JAL:
		c.Taken = true
		l.setReg(i, in.Rd, pc+4)
		c.NextPC = uint64(in.Imm)
	case isa.JR:
		c.Taken = true
		c.NextPC = rs1
	case isa.JALR:
		c.Taken = true
		target := rs1 // read before link in case Rd == Rs1
		l.setReg(i, in.Rd, pc+4)
		c.NextPC = target

	case isa.FADD:
		l.setF(i, in.Rd, l.f(i, in.Rs1)+l.f(i, in.Rs2))
	case isa.FSUB:
		l.setF(i, in.Rd, l.f(i, in.Rs1)-l.f(i, in.Rs2))
	case isa.FMUL:
		l.setF(i, in.Rd, l.f(i, in.Rs1)*l.f(i, in.Rs2))
	case isa.FDIV:
		l.setF(i, in.Rd, l.f(i, in.Rs1)/l.f(i, in.Rs2))
	case isa.FMIN:
		l.setF(i, in.Rd, math.Min(l.f(i, in.Rs1), l.f(i, in.Rs2)))
	case isa.FMAX:
		l.setF(i, in.Rd, math.Max(l.f(i, in.Rs1), l.f(i, in.Rs2)))
	case isa.FCVTIF:
		l.setF(i, in.Rd, float64(int64(rs1)))
	case isa.FCVTFI:
		l.setReg(i, in.Rd, uint64(int64(l.f(i, in.Rs1))))
	case isa.FEQ:
		l.setReg(i, in.Rd, b2u(l.f(i, in.Rs1) == l.f(i, in.Rs2)))
	case isa.FLT:
		l.setReg(i, in.Rd, b2u(l.f(i, in.Rs1) < l.f(i, in.Rs2)))

	case isa.AMOADD:
		c.Addr = rs1
		old := signExtend(l.Mem[i].Read(c.Addr, 4), 4)
		l.Mem[i].Write(c.Addr, old+l.Regs[in.Rs2][i], 4)
		c.Data = old
		l.setReg(i, in.Rd, old)

	case isa.FENCE:
		// Architecturally a no-op in a single-thread machine.

	case isa.SYSCALL:
		c.Taken = true
		switch l.Regs[2][i] {
		case SysPrintInt:
			c.Data = l.Regs[4][i]
			//unsync:allow-alloc syscall output is rare and bounded by the program's print count; amortized append growth
			l.Output[i] = append(l.Output[i], l.Regs[4][i])
		case SysPrintFloat:
			c.Data = l.FRegs[12][i]
			//unsync:allow-alloc syscall output is rare and bounded by the program's print count; amortized append growth
			l.Output[i] = append(l.Output[i], l.FRegs[12][i])
		case SysExit:
			l.Halted[i] = true
		}

	case isa.HALT:
		c.Taken = true
		l.Halted[i] = true

	default:
		return Commit{}, fmt.Errorf("emu: unimplemented opcode %v at pc=%#x", in.Op, pc)
	}

	if cls == isa.ClassBranch && c.Taken {
		c.NextPC = pc + uint64(in.Imm)
	}
	l.PC[i] = c.NextPC
	l.InstCount[i]++
	return c, nil
}

func (l *Lanes) setReg(i int, rd uint8, v uint64) {
	if rd != 0 {
		l.Regs[rd][i] = v
	}
}

func (l *Lanes) f(i int, r uint8) float64       { return math.Float64frombits(l.FRegs[r][i]) }
func (l *Lanes) setF(i int, r uint8, v float64) { l.FRegs[r][i] = math.Float64bits(v) }

// Snapshot captures lane i's architectural state in the same shape a
// scalar Machine snapshot uses.
func (l *Lanes) Snapshot(i int) ArchState {
	var s ArchState
	for r := 0; r < isa.NumRegs; r++ {
		s.Regs[r] = l.Regs[r][i]
		s.FRegs[r] = l.FRegs[r][i]
	}
	s.PC = l.PC[i]
	return s
}

// Restore overwrites lane i's registers and PC with s, the lane
// counterpart of Machine.Restore (r0 stays hardwired to zero).
func (l *Lanes) Restore(i int, s ArchState) {
	for r := 0; r < isa.NumRegs; r++ {
		l.Regs[r][i] = s.Regs[r]
		l.FRegs[r][i] = s.FRegs[r]
	}
	l.PC[i] = s.PC
	l.Regs[0][i] = 0
}

// XorReg flips bits of lane i's integer register r by mask. The write
// is unconditional and branch-free so a batch kernel can apply a
// per-lane fault as column ^= mask with mask 0 for non-firing lanes;
// r0 stays hardwired to zero.
func (l *Lanes) XorReg(i int, r uint8, mask uint64) {
	l.Regs[r][i] ^= mask
	l.Regs[0][i] = 0
}

// XorFReg flips bits of lane i's float register r by mask.
func (l *Lanes) XorFReg(i int, r uint8, mask uint64) {
	l.FRegs[r][i] ^= mask
}

// XorPC flips bits of lane i's PC by mask.
func (l *Lanes) XorPC(i int, mask uint64) {
	l.PC[i] ^= mask
}
