// Package stats provides the small statistical primitives the simulator
// uses for per-run accounting: running means and variances, occupancy
// trackers, and the Wilson interval for fault-campaign rates.
package stats

import "math"

// Running accumulates a stream of float64 samples using Welford's online
// algorithm. The zero value is ready to use.
type Running struct {
	n        uint64
	mean, m2 float64
}

// Add records one sample.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Mean returns the sample mean (0 if empty).
func (r *Running) Mean() float64 { return r.mean }

// Var returns the population variance (0 if fewer than 2 samples).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// Std returns the population standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Occupancy tracks the time-weighted occupancy of a finite resource
// (entries in a buffer) sampled once per cycle.
type Occupancy struct {
	sum    uint64
	cycles uint64
	peak   int
	cap    int
	fullCy uint64 // cycles at capacity; internal/cmp's golden digests pin it
}

// NewOccupancy creates a tracker for a resource with the given capacity.
func NewOccupancy(capacity int) *Occupancy { return &Occupancy{cap: capacity} }

// Sample records the occupancy for one cycle.
func (o *Occupancy) Sample(n int) {
	o.cycles++
	o.sum += uint64(n)
	if n > o.peak {
		o.peak = n
	}
	if o.cap > 0 && n >= o.cap {
		o.fullCy++
	}
}

// SampleN records the same occupancy for k cycles, exactly as k calls
// to Sample(n) would. k = 0 records nothing.
func (o *Occupancy) SampleN(n int, k uint64) {
	if k == 0 {
		return
	}
	o.cycles += k
	o.sum += uint64(n) * k
	if n > o.peak {
		o.peak = n
	}
	if o.cap > 0 && n >= o.cap {
		o.fullCy += k
	}
}

// Mean returns the average occupancy per cycle.
func (o *Occupancy) Mean() float64 {
	if o.cycles == 0 {
		return 0
	}
	return float64(o.sum) / float64(o.cycles)
}

// Peak returns the maximum observed occupancy.
func (o *Occupancy) Peak() int { return o.peak }

// Cycles returns the number of samples taken.
func (o *Occupancy) Cycles() uint64 { return o.cycles }

// Mean returns the arithmetic mean of xs (0 if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Wilson returns the Wilson score interval for a binomial proportion:
// k successes out of n trials at confidence multiplier z (1.96 for a
// 95% interval). Unlike the normal approximation it stays inside [0,1]
// and behaves sensibly at k=0 and k=n — exactly the regime of SDC-rate
// estimation, where observed rates are often 0 over thousands of
// trials. n == 0 returns the vacuous interval [0, 1].
func Wilson(k, n uint64, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	if z <= 0 {
		z = 1.96
	}
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := p + z2/(2*nf)
	margin := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = (center - margin) / denom
	hi = (center + margin) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
