// Package stats provides the small statistical primitives the simulator
// uses for per-run accounting: running means/variances, bucketed
// histograms, and occupancy trackers.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Running accumulates a stream of float64 samples using Welford's online
// algorithm. The zero value is ready to use.
type Running struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples.
func (r *Running) N() uint64 { return r.n }

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

// Min and Max return the extremes (0 if empty).
func (r *Running) Min() float64 { return r.min }
func (r *Running) Max() float64 { return r.max }

// Merge folds another accumulator into r (parallel Welford merge).
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	r.m2 += o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	r.mean += d * float64(o.n) / float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = n
}

// Histogram is a linear-bucket histogram over [0, buckets*width), with an
// overflow bucket. It is used for occupancy distributions (ROB, CB, CSB).
type Histogram struct {
	width    float64
	counts   []uint64
	overflow uint64
	total    uint64
}

// NewHistogram creates a histogram with the given bucket count and width.
func NewHistogram(buckets int, width float64) *Histogram {
	if buckets < 1 || width <= 0 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{width: width, counts: make([]uint64, buckets)}
}

// Add records a sample. NaN and ±Inf samples land in the overflow
// bucket: converting a non-finite quotient to int is
// implementation-defined in Go and could otherwise index out of range.
func (h *Histogram) Add(x float64) {
	h.total++
	if math.IsNaN(x) || math.IsInf(x, 0) {
		h.overflow++
		return
	}
	if x < 0 {
		x = 0
	}
	i := int(x / h.width)
	// i < 0 guards finite x so large that the int conversion wrapped.
	if i < 0 || i >= len(h.counts) {
		h.overflow++
		return
	}
	h.counts[i]++
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the count in bucket i; i == len buckets means overflow.
func (h *Histogram) Count(i int) uint64 {
	if i == len(h.counts) {
		return h.overflow
	}
	return h.counts[i]
}

// Buckets returns the number of regular buckets.
func (h *Histogram) Buckets() int { return len(h.counts) }

// Quantile returns an upper bound for the q-quantile using bucket
// upper edges; +Inf if the quantile falls in the overflow bucket. q is
// clamped into [0, 1] (NaN clamps to 0), so a caller asking for a
// nonsense quantile gets the nearest defined one instead of garbage.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if !(q >= 0) { // also catches NaN
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return float64(i+1) * h.width
		}
	}
	return math.Inf(1)
}

// String renders a compact textual sparkline of the histogram.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "(empty)"
	}
	glyphs := []rune(" .:-=+*#%@")
	var maxC uint64 = 1
	for _, c := range h.counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for _, c := range h.counts {
		idx := int(float64(c) / float64(maxC) * float64(len(glyphs)-1))
		b.WriteRune(glyphs[idx])
	}
	if h.overflow > 0 {
		fmt.Fprintf(&b, " +%d", h.overflow)
	}
	return b.String()
}

// Occupancy tracks the time-weighted occupancy of a finite resource
// (entries in a buffer) sampled once per cycle.
type Occupancy struct {
	sum    uint64
	cycles uint64
	peak   int
	cap    int
	fullCy uint64
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

// FullFrac returns the fraction of cycles the resource was full.
func (o *Occupancy) FullFrac() float64 {
	if o.cycles == 0 {
		return 0
	}
	return float64(o.fullCy) / float64(o.cycles)
}

// Cycles returns the number of samples taken.
func (o *Occupancy) Cycles() uint64 { return o.cycles }

// Ratio returns a/b, or 0 when b == 0; a convenience for rate reporting.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Pct returns 100*(a-b)/b — the percentage change of a relative to b —
// or 0 when b == 0.
func Pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a - b) / b
}

// GeoMean returns the geometric mean of xs, ignoring non-positive values.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

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
