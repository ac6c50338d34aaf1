// Package fault models soft errors: the SER process that drives the
// §VI-C sweep, the region-of-error-coverage (ROEC) accounting of §VI-D,
// and the functional (emulator-level) single-trial injection kernels
// that verify the recovery mechanisms end to end; campaigns over them
// run in internal/campaign.
package fault

import "math"

// SER is a soft-error process expressed per committed instruction, the
// paper's unit (2.89e-17 errors/instruction at the 90 nm node, §VI-C).
type SER struct {
	PerInst float64
}

// Paper90nm is the 90 nm SER operating point from [41].
func Paper90nm() SER { return SER{PerInst: 2.89e-17} }

// ExpectedErrors returns the mean number of errors over a run.
func (s SER) ExpectedErrors(insts uint64) float64 {
	return s.PerInst * float64(insts)
}

// rng is a private xorshift64* for deterministic arrival sampling.
type rng struct{ s uint64 }

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return rng{s: seed}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Arrivals samples a Poisson error process deterministically: Next
// returns the number of instructions until the next error (exponential
// inter-arrival, inverse-CDF).
type Arrivals struct {
	r    rng
	rate float64
}

// NewArrivals creates an arrival sampler. A zero or negative rate never
// fires (Next returns the maximum count).
func NewArrivals(ser SER, seed uint64) *Arrivals {
	return &Arrivals{r: newRNG(seed), rate: ser.PerInst}
}

// Next returns instructions until the next error.
func (a *Arrivals) Next() uint64 {
	if a.rate <= 0 {
		return math.MaxUint64
	}
	u := a.r.float()
	for u == 0 {
		u = a.r.float()
	}
	gap := -math.Log(u) / a.rate
	if gap >= float64(math.MaxUint64)/2 {
		return math.MaxUint64
	}
	if gap < 1 {
		gap = 1
	}
	return uint64(gap)
}

// Pick returns a uniform integer in [0, n) from the sampler's stream
// (used to choose the erroneous core / target / bit deterministically).
func (a *Arrivals) Pick(n int) int {
	if n <= 1 {
		return 0
	}
	return int(a.r.next() % uint64(n))
}

// BreakEven solves for the SER (errors/instruction) at which two
// schemes' throughputs match: scheme 1 runs at ipc1 with cost1 stall
// cycles per error, scheme 2 at ipc2 with cost2. Below the break-even
// rate the faster error-free scheme wins; the paper's hypothetical
// analysis (§VI-C) lands at ~1.29e-3 for UnSync vs Reunion.
//
// With error rate r per instruction, effective cycles per instruction
// become 1/ipc + r*cost; equating the two sides:
//
//	r* = (1/ipc2 − 1/ipc1) / (cost1 − cost2)
//
// It returns 0 when no positive break-even exists (one scheme dominates).
func BreakEven(ipc1, cost1, ipc2, cost2 float64) float64 {
	if ipc1 <= 0 || ipc2 <= 0 {
		return 0
	}
	num := 1/ipc2 - 1/ipc1
	den := cost1 - cost2
	if den == 0 {
		return 0
	}
	r := num / den
	if r <= 0 {
		return 0
	}
	return r
}

// EffectiveIPC returns the throughput of a scheme at error rate r given
// its error-free IPC and per-error stall cost in cycles.
func EffectiveIPC(ipc, costPerError, ratePerInst float64) float64 {
	if ipc <= 0 {
		return 0
	}
	cpi := 1/ipc + ratePerInst*costPerError
	return 1 / cpi
}
