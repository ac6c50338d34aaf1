package emu

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"

	"github.com/cmlasu/unsync/internal/isa"
)

// Overlay is a per-lane copy-on-write view over a shared base memory.
// The base is the program's immutable initial image (one per decoded
// program); every write lands in the lane's private dirty-byte map, so
// B trial lanes share one data image instead of holding B clones.
type Overlay struct {
	base  *Memory
	dirty map[uint64]byte

	// undo journals every Write while journal is on (from Mark to
	// Release), so Rewind can return to any mark.
	undo    []storeUndo
	journal bool
}

// storeUndo is one journaled Write: the bytes it overwrote and which
// of them were already in the lane's private dirty set.
type storeUndo struct {
	addr  uint64
	old   [8]byte
	dirty uint8 // bit i set: byte addr+i was dirty, holding old[i]
	width uint8
}

// NewOverlay returns an empty overlay over base. The base is read
// through, never written.
func NewOverlay(base *Memory) Overlay {
	return Overlay{base: base, dirty: make(map[uint64]byte)}
}

// LoadByte returns the byte at addr, preferring the lane's own writes.
func (o *Overlay) LoadByte(addr uint64) byte {
	if b, ok := o.dirty[addr]; ok {
		return b
	}
	return o.base.LoadByte(addr)
}

// StoreByte stores b at addr in the lane's private dirty set.
func (o *Overlay) StoreByte(addr uint64, b byte) { o.dirty[addr] = b }

// Read returns width bytes at addr as a little-endian unsigned
// integer, mirroring Memory.Read.
func (o *Overlay) Read(addr uint64, width int) uint64 {
	var buf [8]byte
	for i := 0; i < width; i++ {
		buf[i] = o.LoadByte(addr + uint64(i))
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// Write stores the low width bytes of v at addr, mirroring
// Memory.Write. While journaling (see Mark) the prior bytes are
// recorded first.
func (o *Overlay) Write(addr uint64, v uint64, width int) {
	if o.journal {
		o.record(addr, width)
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	for i := 0; i < width; i++ {
		o.StoreByte(addr+uint64(i), buf[i])
	}
}

// record journals the width bytes at addr before a Write overwrites
// them.
func (o *Overlay) record(addr uint64, width int) {
	u := storeUndo{addr: addr, width: uint8(width)}
	for i := 0; i < width; i++ {
		if b, ok := o.dirty[addr+uint64(i)]; ok {
			u.old[i] = b
			u.dirty |= 1 << i
		}
	}
	o.undo = append(o.undo, u)
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

// Rewind undoes every Write journaled after mark m, newest first. The
// dirty set is restored exactly: bytes first written after the mark
// leave it again.
func (o *Overlay) Rewind(m int) {
	for k := len(o.undo) - 1; k >= m; k-- {
		u := &o.undo[k]
		for i := 0; i < int(u.width); i++ {
			a := u.addr + uint64(i)
			if u.dirty&(1<<i) != 0 {
				o.dirty[a] = u.old[i]
			} else {
				delete(o.dirty, a)
			}
		}
	}
	o.undo = o.undo[:m]
}

// Release switches journaling off and forgets the journal; the
// overlay keeps its current contents.
func (o *Overlay) Release() {
	o.undo = o.undo[:0]
	o.journal = false
}

// Clone returns a copy-on-write fork of the overlay: the base stays
// shared, the dirty set is copied. Cost is proportional to the bytes
// the source lane has written, not to the memory image. The fork does
// not journal until it is marked.
func (o *Overlay) Clone() Overlay {
	return Overlay{base: o.base, dirty: maps.Clone(o.dirty)}
}

// Dirty returns the number of privately written bytes (for stats and
// tests).
func (o *Overlay) Dirty() int { return len(o.dirty) }

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
		l.Mem[i] = NewOverlay(d.image)
	}
	return l
}

// Len returns the number of lanes.
func (l *Lanes) Len() int { return len(l.PC) }

// Fork copies lane src's architectural state into lane dst: registers,
// PC, halt flag, instruction count, output prefix, and a copy-on-write
// clone of the memory overlay.
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
	l.Mem[dst] = l.Mem[src].Clone()
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
