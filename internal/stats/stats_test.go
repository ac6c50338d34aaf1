package stats

import (
	"math"
	"testing"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x)
	}
	if math.Abs(r.Mean()-3) > 1e-12 {
		t.Errorf("Mean = %g", r.Mean())
	}
	if math.Abs(r.Var()-2) > 1e-12 {
		t.Errorf("Var = %g, want 2", r.Var())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.Std() != 0 {
		t.Error("empty Running should be all zeros")
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Add(7)
	if r.Var() != 0 || r.Mean() != 7 {
		t.Error("single-sample stats wrong")
	}
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
		if bulk.Mean() != single.Mean() || bulk.Peak() != single.Peak() || bulk.Cycles() != single.Cycles() {
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
	if o.Mean() != 0 || o.Peak() != 0 || o.Cycles() != 0 {
		t.Error("empty occupancy should be zero")
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
