// Package crc implements the 16-bit cyclic redundancy check used by the
// Reunion fingerprint generator (CRC-16-CCITT, polynomial 0x1021), in
// two formulations:
//
//   - a bitwise/serial reference implementation, and
//   - the two-stage parallel formulation of Albertengo & Sisto ("Parallel
//     CRC generation", IEEE Micro 1990 — the paper's reference [28]),
//     which processes a full 16-bit word per step via a precomputed
//     table and is the shape of the 238-gate hardware block the paper
//     synthesizes.
//
// Both produce identical results; a property test in this package pins
// that equivalence.
package crc

// Poly is the CRC-16-CCITT generator polynomial x^16+x^12+x^5+1.
const Poly uint16 = 0x1021

// SerialUpdate folds one byte into the CRC state bit by bit (reference
// implementation).
func SerialUpdate(state uint16, b byte) uint16 {
	state ^= uint16(b) << 8
	for i := 0; i < 8; i++ {
		if state&0x8000 != 0 {
			state = state<<1 ^ Poly
		} else {
			state <<= 1
		}
	}
	return state
}

// table is the byte-parallel lookup table (first stage of the parallel
// formulation).
var table = func() [256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		t[i] = SerialUpdate(0, byte(i))
	}
	return t
}()

// Update folds one byte into the CRC state using the table (parallel
// formulation).
func Update(state uint16, b byte) uint16 {
	return state<<8 ^ table[byte(state>>8)^b]
}

// UpdateWord folds a 16-bit word in two table steps — the "two stage
// parallel" organization of the hardware fingerprint generator, which
// consumes one word per pipeline cycle.
func UpdateWord(state uint16, w uint16) uint16 {
	state = Update(state, byte(w>>8))
	return Update(state, byte(w))
}

// slice8[k][b] is the CRC, from a zero state, of byte b followed by k
// zero bytes: the tables of the slicing-by-8 formulation.
var slice8 = func() [8][256]uint16 {
	var t [8][256]uint16
	t[0] = table
	for k := 1; k < 8; k++ {
		for b := 0; b < 256; b++ {
			t[k][b] = Update(t[k-1][b], 0)
		}
	}
	return t
}()

// Update64 folds a 64-bit value, most significant byte first — the same
// result as eight Update steps. CRC is linear, so the state folds into
// the first two bytes and each byte's contribution is one independent
// lookup (slicing-by-8) instead of a chain of eight dependent ones.
func Update64(state uint16, v uint64) uint16 {
	return slice8[7][byte(v>>56)^byte(state>>8)] ^
		slice8[6][byte(v>>48)^byte(state)] ^
		slice8[5][byte(v>>40)] ^
		slice8[4][byte(v>>32)] ^
		slice8[3][byte(v>>24)] ^
		slice8[2][byte(v>>16)] ^
		slice8[1][byte(v>>8)] ^
		slice8[0][byte(v)]
}

// Checksum computes the CRC-16 of a byte slice from a zero initial
// state.
func Checksum(data []byte) uint16 {
	var s uint16
	for _, b := range data {
		s = Update(s, b)
	}
	return s
}

// GateCount is the combinational size of the two-stage parallel 16-bit
// CRC block reported by the paper's synthesis reference [28]. The
// hardware model (internal/hwmodel) prices the fingerprint generator
// with it.
const GateCount = 238
