package emu_test

import (
	"testing"

	"github.com/cmlasu/unsync/internal/asm"
	"github.com/cmlasu/unsync/internal/emu"
	"github.com/cmlasu/unsync/internal/isa"
)

const (
	testPage = 4096
	testLine = 64
)

// overlayProg is a one-instruction program whose data section fills
// the page at DataBase and part of the next, so overlay accesses can
// straddle lines and pages over mapped data and run into the unmapped
// pages on either side. One program value keeps it one decode-cache
// entry.
var overlayProg = func() *asm.Program {
	data := make([]byte, testPage+904)
	r := newTestRNG(0x0e71a9)
	for i := range data {
		data[i] = byte(r.next())
	}
	return &asm.Program{
		Insts:    []isa.Inst{{Op: isa.HALT}},
		DataBase: asm.DataBase,
		Data:     data,
	}
}()

// overlayWindow is the address range the overlay tests touch and
// compare: one unmapped page below the data, the two data pages and
// one unmapped page above.
var overlayLo, overlayHi = uint64(asm.DataBase - testPage), uint64(asm.DataBase + 3*testPage)

// sameAsMemory fails unless every byte of the overlay in the window
// reads as it does in ref.
func sameAsMemory(t *testing.T, tag string, o *emu.Overlay, ref *emu.Memory) {
	t.Helper()
	for a := overlayLo; a < overlayHi; a++ {
		if got, want := o.Read(a, 1), ref.Read(a, 1); got != want {
			t.Fatalf("%s: byte %#x = %#x, want %#x", tag, a, got, want)
		}
	}
}

// TestOverlayMarkRewind pins the undo-journal contract the Reunion
// lane engine's checkpoints rely on: marks nest, Rewind returns the
// overlay to the state at any earlier mark (inner marks included),
// writes straddling a 64-byte line or a 4 KiB page undo exactly, a
// lane forked from a marked lane leaves the source's rewind unaffected
// (and is unaffected by it), and Release keeps the current contents.
func TestOverlayMarkRewind(t *testing.T) {
	dec := emu.Decode(overlayProg)
	image := dec.Image().Clone()
	L := emu.NewLanes(dec, 2)
	o := &L.Mem[0]
	ref := dec.Image().Clone()
	write := func(o *emu.Overlay, ref *emu.Memory, addr, v uint64, w int) {
		o.Write(addr, v, w)
		ref.Write(addr, v, w)
	}
	base := uint64(asm.DataBase)
	lineX := base + 2*testLine - 3 // 8-byte write straddling lines 1 and 2
	pageX := base + testPage - 5   // 8-byte write straddling pages 0 and 1
	highX := base + 2*testPage - 2 // 4-byte write into the unmapped page 2
	lowX := base - 1               // 2-byte write straddling unmapped and mapped

	// Writes before any mark are never journaled.
	write(o, ref, base+8, 0x1111_2222_3333_4444, 8)

	m1 := o.Mark()
	at1 := ref.Clone()
	write(o, ref, base+8, 0xaaaa, 2) // overwrite a pre-mark write
	write(o, ref, lineX, 0x0102_0304_0506_0708, 8)
	write(o, ref, pageX, 0x1112_1314_1516_1718, 8)
	sameAsMemory(t, "after outer writes", o, ref)

	m2 := o.Mark()
	if m2 < m1 {
		t.Fatalf("nested mark %d precedes outer mark %d", m2, m1)
	}
	at2 := ref.Clone()
	write(o, ref, lineX+1, 0xdead_beef, 4) // overwrite part of a journaled write
	write(o, ref, highX, 0xcafe_f00d, 4)
	write(o, ref, lowX, 0x7e57, 2)
	write(o, ref, base+200, 0x5a, 1)
	sameAsMemory(t, "after inner writes", o, ref)

	o.Rewind(m2)
	sameAsMemory(t, "rewound to inner mark", o, at2)
	ref = at2.Clone()

	// Rewinding to the outer mark undoes writes on both sides of the
	// inner one, including those made after rewinding to it.
	write(o, ref, lineX-4, 0x99, 1)
	write(o, ref, pageX+3, 0x8877_6655, 4)
	o.Rewind(m1)
	sameAsMemory(t, "rewound to outer mark", o, at1)
	ref = at1.Clone()

	// Fork from a marked lane: both lanes share the forked contents,
	// then diverge privately; rewinding the source restores its mark
	// without disturbing the fork.
	m3 := o.Mark()
	write(o, ref, lineX, 0x4242_4242_4242_4242, 8)
	write(o, ref, pageX, 0x6161_6161_6161_6161, 8)
	at3 := ref.Clone()
	L.Fork(1, 0)
	fork := &L.Mem[1]
	forkRef := ref.Clone()
	sameAsMemory(t, "fork start", fork, forkRef)
	sameAsMemory(t, "source at fork", o, at3)
	write(o, ref, lineX, 0x0f0f, 2)
	write(o, ref, highX, 0x31, 1)
	write(fork, forkRef, pageX+1, 0x7777_7777, 4)
	write(fork, forkRef, base+300, 0x12, 1)
	o.Rewind(m3)
	ref = at1.Clone()
	sameAsMemory(t, "source rewound after fork", o, ref)
	sameAsMemory(t, "fork after source rewind", fork, forkRef)

	// The fork journals only once marked, and its rewind leaves the
	// source alone.
	fm := fork.Mark()
	forkAt := forkRef.Clone()
	write(fork, forkRef, lineX, 0x5555_5555_5555_5555, 8)
	write(fork, forkRef, lowX, 0x0102, 2)
	fork.Rewind(fm)
	sameAsMemory(t, "fork rewound", fork, forkAt)
	sameAsMemory(t, "source after fork rewind", o, ref)

	// Release keeps the current contents and stops journaling; a new
	// mark starts a fresh journal.
	o.Mark()
	write(o, ref, pageX, 0x2323_2323_2323_2323, 8)
	write(o, ref, lineX+2, 0x34, 1)
	o.Release()
	sameAsMemory(t, "released", o, ref)
	m4 := o.Mark()
	at4 := ref.Clone()
	write(o, ref, pageX+2, 0x4545, 2)
	o.Rewind(m4)
	sameAsMemory(t, "rewound after release", o, at4)

	if !dec.Image().Equal(image) {
		t.Fatal("overlay writes reached the shared image")
	}
}

// overlayMark is one live Mark of a lane with the contents it marked.
type overlayMark struct {
	m   int
	ref *emu.Memory
}

// FuzzOverlayMatchesMemory drives two lane overlays through a random
// sequence of Write, Read, Fork, Mark, Rewind and Release and checks
// each against a reference Memory: every read must match, every Rewind
// must restore the marked contents, and the shared image must never
// change. Addresses cover an unmapped page on each side of the data,
// so accesses straddle lines, pages and mapped/unmapped boundaries —
// sites random programs only reach through flips.
//
// Each operation is one byte (op in the low 3 bits, lane in bit 3,
// width 1<<bits 4-5) followed, for Write and Read, by two address
// bytes; Rewind takes one byte choosing the mark.
func FuzzOverlayMatchesMemory(f *testing.F) {
	f.Add([]byte{0x30, 0xff, 0x0f, 0x03, 0x30, 0x3d, 0x00, 0x04, 0x00, 0x21, 0x3d, 0x00})
	f.Add([]byte{0x03, 0x30, 0xfb, 0x1f, 0x02, 0x3b, 0x38, 0xfb, 0x1f, 0x04, 0x00, 0x39, 0xfb, 0x1f})
	f.Add([]byte{0x20, 0xfe, 0x2f, 0x03, 0x10, 0xff, 0x0f, 0x05, 0x11, 0xff, 0x0f, 0x03, 0x04, 0x00})
	dec := emu.Decode(overlayProg)
	image := dec.Image().Clone()
	f.Fuzz(func(t *testing.T, ops []byte) {
		L := emu.NewLanes(dec, 2)
		refs := [2]*emu.Memory{dec.Image().Clone(), dec.Image().Clone()}
		var marks [2][]overlayMark
		r := newTestRNG(uint64(len(ops)))
		for p := 0; p < len(ops); {
			b := ops[p]
			p++
			lane := int(b>>3) & 1
			o, ref := &L.Mem[lane], refs[lane]
			w := 1 << ((b >> 4) & 3)
			addr := func() uint64 {
				var off uint64
				if p < len(ops) {
					off = uint64(ops[p])
					p++
				}
				if p < len(ops) {
					off |= uint64(ops[p]) << 8
					p++
				}
				return overlayLo + off%(overlayHi-overlayLo)
			}
			switch b & 7 {
			case 0, 6: // Write
				a, v := addr(), r.next()
				o.Write(a, v, w)
				ref.Write(a, v, w)
			case 1, 7: // Read
				a := addr()
				if got, want := o.Read(a, w), ref.Read(a, w); got != want {
					t.Fatalf("op %d: lane %d Read(%#x, %d) = %#x, want %#x", p, lane, a, w, got, want)
				}
			case 2: // Fork the other lane from this one
				dst := 1 - lane
				L.Fork(dst, lane)
				refs[dst] = ref.Clone()
				marks[dst] = nil
			case 3: // Mark
				marks[lane] = append(marks[lane], overlayMark{o.Mark(), ref.Clone()})
			case 4: // Rewind to a live mark
				if len(marks[lane]) == 0 {
					continue
				}
				k := 0
				if p < len(ops) {
					k = int(ops[p]) % len(marks[lane])
					p++
				}
				mk := marks[lane][k]
				o.Rewind(mk.m)
				refs[lane] = mk.ref.Clone()
				marks[lane] = marks[lane][:k+1]
			case 5: // Release
				o.Release()
				marks[lane] = nil
			}
		}
		for lane := range refs {
			for a := overlayLo; a < overlayHi; a += 8 {
				if got, want := L.Mem[lane].Read(a, 8), refs[lane].Read(a, 8); got != want {
					t.Fatalf("final: lane %d word %#x = %#x, want %#x", lane, a, got, want)
				}
			}
		}
		if !dec.Image().Equal(image) {
			t.Fatal("overlay writes reached the shared image")
		}
	})
}

// TestOverlayManyLines walks a lane through every line of the overlay
// window, downward like a runaway stack and then upward, so the line
// table outgrows its unsorted tail many times over; a lane forked
// midway must keep its own contents. Both lanes must read exactly as
// reference Memories do.
func TestOverlayManyLines(t *testing.T) {
	dec := emu.Decode(overlayProg)
	L := emu.NewLanes(dec, 2)
	refs := [2]*emu.Memory{dec.Image().Clone(), nil}
	write := func(lane int, a, v uint64) {
		L.Mem[lane].Write(a, v, 8)
		refs[lane].Write(a, v, 8)
	}
	mid := overlayLo + (overlayHi-overlayLo)/2
	for a := overlayHi - testLine; a >= mid; a -= testLine {
		write(0, a+8, a)
	}
	L.Fork(1, 0)
	refs[1] = refs[0].Clone()
	for a := mid - testLine; a >= overlayLo; a -= testLine {
		write(0, a+8, ^a)
	}
	for a := overlayLo; a < overlayHi; a += testLine {
		write(1, a+16, a*3)
	}
	for lane := range refs {
		sameAsMemory(t, "lane", &L.Mem[lane], refs[lane])
	}
	if want := int((overlayHi - overlayLo) / testLine); L.Mem[0].Dirty() != want || L.Mem[1].Dirty() != want {
		t.Fatalf("Dirty = %d, %d lines, want %d each", L.Mem[0].Dirty(), L.Mem[1].Dirty(), want)
	}
}
