package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x)
	}
	if r.N() != 5 {
		t.Errorf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-3) > 1e-12 {
		t.Errorf("Mean = %g", r.Mean())
	}
	if math.Abs(r.Var()-2) > 1e-12 {
		t.Errorf("Var = %g, want 2", r.Var())
	}
	if r.Min() != 1 || r.Max() != 5 {
		t.Errorf("Min/Max = %g/%g", r.Min(), r.Max())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.Std() != 0 || r.N() != 0 {
		t.Error("empty Running should be all zeros")
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Add(7)
	if r.Var() != 0 || r.Mean() != 7 || r.Min() != 7 || r.Max() != 7 {
		t.Error("single-sample stats wrong")
	}
}

func TestRunningMerge(t *testing.T) {
	var a, b, all Running
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	for i, x := range xs {
		if i < 4 {
			a.Add(x)
		} else {
			b.Add(x)
		}
		all.Add(x)
	}
	a.Merge(b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d", a.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 || math.Abs(a.Var()-all.Var()) > 1e-9 {
		t.Errorf("merge: mean %g vs %g, var %g vs %g", a.Mean(), all.Mean(), a.Var(), all.Var())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Error("merge min/max wrong")
	}
}

func TestRunningMergeEmptySides(t *testing.T) {
	var a, b Running
	b.Add(2)
	a.Merge(b) // empty <- nonempty
	if a.N() != 1 || a.Mean() != 2 {
		t.Error("merge into empty failed")
	}
	var c Running
	a.Merge(c) // nonempty <- empty
	if a.N() != 1 {
		t.Error("merge of empty changed state")
	}
}

// Property: merging a randomly split stream equals accumulating it whole.
func TestQuickMerge(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		k := 0
		if len(xs) > 0 {
			k = int(split) % (len(xs) + 1)
		}
		var a, b, all Running
		for i, x := range xs {
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
			all.Add(x)
		}
		a.Merge(b)
		if a.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(all.Mean()))
		return math.Abs(a.Mean()-all.Mean())/scale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4, 10)
	for _, x := range []float64{0, 5, 15, 25, 35, 45, -1} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(0) != 3 { // 0, 5, -1(clamped)
		t.Errorf("bucket 0 = %d", h.Count(0))
	}
	if h.Count(1) != 1 || h.Count(2) != 1 || h.Count(3) != 1 {
		t.Error("mid buckets wrong")
	}
	if h.Count(4) != 1 { // overflow: 45
		t.Errorf("overflow = %d", h.Count(4))
	}
	if h.Buckets() != 4 {
		t.Errorf("Buckets = %d", h.Buckets())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10, 1)
	for i := 0; i < 100; i++ {
		h.Add(float64(i % 10))
	}
	if q := h.Quantile(0.5); q != 5 {
		t.Errorf("median = %g, want 5", q)
	}
	if q := h.Quantile(1.0); q != 10 {
		t.Errorf("q100 = %g, want 10", q)
	}
	h2 := NewHistogram(2, 1)
	h2.Add(100)
	if !math.IsInf(h2.Quantile(0.99), 1) {
		t.Error("overflow quantile should be +Inf")
	}
	var empty Histogram
	if (&empty).Quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

// TestHistogramNonFinite proves NaN and ±Inf samples land in the
// overflow bucket instead of producing an implementation-defined index.
func TestHistogramNonFinite(t *testing.T) {
	h := NewHistogram(4, 10)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		h.Add(x)
	}
	if h.Total() != 4 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(4) != 4 {
		t.Errorf("overflow = %d, want all 4 non-bucketable samples", h.Count(4))
	}
	for i := 0; i < 4; i++ {
		if h.Count(i) != 0 {
			t.Errorf("bucket %d = %d, want 0", i, h.Count(i))
		}
	}
}

// TestQuantileClamped proves out-of-range and NaN q values clamp to the
// nearest defined quantile instead of returning garbage.
func TestQuantileClamped(t *testing.T) {
	h := NewHistogram(10, 1)
	for i := 0; i < 100; i++ {
		h.Add(float64(i % 10))
	}
	if got, want := h.Quantile(-0.5), h.Quantile(0); got != want {
		t.Errorf("Quantile(-0.5) = %g, want Quantile(0) = %g", got, want)
	}
	if got, want := h.Quantile(2), h.Quantile(1); got != want {
		t.Errorf("Quantile(2) = %g, want Quantile(1) = %g", got, want)
	}
	if got, want := h.Quantile(math.NaN()), h.Quantile(0); got != want {
		t.Errorf("Quantile(NaN) = %g, want Quantile(0) = %g", got, want)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(3, 1)
	if h.String() != "(empty)" {
		t.Errorf("empty String = %q", h.String())
	}
	h.Add(0)
	h.Add(10)
	s := h.String()
	if s == "" || s == "(empty)" {
		t.Errorf("String = %q", s)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(0, 1) should panic")
		}
	}()
	NewHistogram(0, 1)
}

func TestOccupancy(t *testing.T) {
	o := NewOccupancy(4)
	for _, n := range []int{0, 2, 4, 4, 2} {
		o.Sample(n)
	}
	if o.Cycles() != 5 {
		t.Errorf("Cycles = %d", o.Cycles())
	}
	if math.Abs(o.Mean()-2.4) > 1e-12 {
		t.Errorf("Mean = %g", o.Mean())
	}
	if o.Peak() != 4 {
		t.Errorf("Peak = %d", o.Peak())
	}
	if math.Abs(o.FullFrac()-0.4) > 1e-12 {
		t.Errorf("FullFrac = %g", o.FullFrac())
	}
}

// TestOccupancySampleN pins SampleN(v, k) to k calls of Sample(v):
// every observable, exactly, below, at and above capacity, with k = 0
// a no-op.
func TestOccupancySampleN(t *testing.T) {
	steps := []struct {
		v int
		k uint64
	}{{0, 3}, {2, 0}, {3, 7}, {4, 2}, {6, 5}, {1, 0}, {4, 1}, {2, 11}}
	bulk, single := NewOccupancy(4), NewOccupancy(4)
	for i, s := range steps {
		bulk.SampleN(s.v, s.k)
		for j := uint64(0); j < s.k; j++ {
			single.Sample(s.v)
		}
		if *bulk != *single {
			t.Fatalf("after step %d (SampleN(%d, %d)): got %+v, want %+v", i, s.v, s.k, *bulk, *single)
		}
		if bulk.Mean() != single.Mean() || bulk.Peak() != single.Peak() ||
			bulk.FullFrac() != single.FullFrac() || bulk.Cycles() != single.Cycles() {
			t.Fatalf("after step %d: observables differ", i)
		}
	}
	empty := NewOccupancy(4)
	empty.SampleN(9, 0)
	if *empty != *NewOccupancy(4) {
		t.Errorf("SampleN(9, 0) changed an empty tracker: %+v", *empty)
	}
}

func TestOccupancyEmpty(t *testing.T) {
	o := NewOccupancy(4)
	if o.Mean() != 0 || o.FullFrac() != 0 {
		t.Error("empty occupancy should be zero")
	}
}

func TestRatioPct(t *testing.T) {
	if Ratio(6, 3) != 2 || Ratio(1, 0) != 0 {
		t.Error("Ratio wrong")
	}
	if Pct(110, 100) != 10 || Pct(90, 100) != -10 || Pct(5, 0) != 0 {
		t.Error("Pct wrong")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean = %g", g)
	}
	if g := GeoMean([]float64{2, 8, 0, -1}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean with non-positive = %g", g)
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestWilson(t *testing.T) {
	// Vacuous interval with no data.
	if lo, hi := Wilson(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Errorf("Wilson(0,0) = [%g,%g], want [0,1]", lo, hi)
	}
	// k=0 keeps a nonzero upper bound (the rule-of-three regime).
	lo, hi := Wilson(0, 100, 1.96)
	if lo != 0 {
		t.Errorf("Wilson(0,100) lo = %g, want 0", lo)
	}
	if hi <= 0 || hi > 0.06 {
		t.Errorf("Wilson(0,100) hi = %g, want ~0.037", hi)
	}
	// Symmetric case: p=0.5 with n=100 gives roughly ±0.097.
	lo, hi = Wilson(50, 100, 1.96)
	if math.Abs(lo-0.404) > 0.005 || math.Abs(hi-0.596) > 0.005 {
		t.Errorf("Wilson(50,100) = [%g,%g], want ~[0.404,0.596]", lo, hi)
	}
	// The interval narrows as n grows.
	lo2, hi2 := Wilson(500, 1000, 1.96)
	if hi2-lo2 >= hi-lo {
		t.Error("Wilson interval must narrow with more trials")
	}
	// k=n stays inside [0,1].
	if lo, hi := Wilson(100, 100, 1.96); hi > 1 || hi < 0.96 || lo < 0.9 {
		t.Errorf("Wilson(100,100) = [%g,%g], want roughly [0.963,1]", lo, hi)
	}
	// A non-positive z falls back to 1.96.
	lo3, hi3 := Wilson(50, 100, 0)
	if lo3 != lo || hi3 != hi {
		t.Error("Wilson z<=0 should default to 1.96")
	}
}
