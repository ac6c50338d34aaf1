package sweep

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

// seq returns the work list 0, 1, ..., n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func TestMapOrderedResults(t *testing.T) {
	items := seq(100)
	out, err := Map(items, 8, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapSerialFallback(t *testing.T) {
	out, err := Map([]int{1, 2, 3}, 1, func(x int) (int, error) { return x + 1, nil })
	if err != nil || out[2] != 4 {
		t.Fatalf("serial map wrong: %v %v", out, err)
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map([]int{1, 2, 3}, 2, func(x int) (int, error) {
		if x == 2 {
			return 0, boom
		}
		return x, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

// TestMapPanicRecovered proves a panicking item becomes that item's
// error — with its index — instead of killing the process, and that a
// panic stops scheduling of not-yet-started items (a panic marks a
// broken harness; grinding through the rest of the list would repeat
// it).
func TestMapPanicRecovered(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, err := Map([]int{0, 1, 2, 3}, workers, func(x int) (int, error) {
			if x == 2 {
				panic("kaboom")
			}
			return x * 10, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was swallowed", workers)
		}
		msg := err.Error()
		if !strings.Contains(msg, "item 2") || !strings.Contains(msg, "kaboom") {
			t.Errorf("workers=%d: error %q lacks item index or panic value", workers, msg)
		}
		// Items completed before the panic kept their results.
		for _, i := range []int{0, 1} {
			if workers == 1 && out[i] != i*10 {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], i*10)
			}
		}
	}
}

// TestMapPanicStopsScheduling pins the abort contract serially, where
// scheduling order is deterministic: the item after the panic never
// runs and the joined error carries ErrAborted.
func TestMapPanicStopsScheduling(t *testing.T) {
	ran := make([]bool, 4)
	out, err := Map([]int{0, 1, 2, 3}, 1, func(x int) (int, error) {
		ran[x] = true
		if x == 1 {
			panic("kaboom")
		}
		return x * 10, nil
	})
	if ran[2] || ran[3] {
		t.Fatalf("items after the panic still ran: %v", ran)
	}
	if out[3] != 0 {
		t.Errorf("skipped item has non-zero result %d", out[3])
	}
	if !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want ErrAborted joined in", err)
	}
}

// TestMapContextCancel proves cancelling the context stops scheduling
// within one item quantum: the partial results survive, the skipped
// items are reported via ErrAborted, and the cancellation cause is
// joined into the error.
func TestMapContextCancel(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		items := seq(100)
		out, err := MapContext(ctx, items, workers, func(ctx context.Context, x int) (int, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			return x * 10, nil
		})
		if got := int(ran.Load()); got >= len(items) {
			t.Fatalf("workers=%d: all %d items ran despite cancellation", workers, got)
		}
		if !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want ErrAborted and context.Canceled", workers, err)
		}
		if workers == 1 {
			// Serial scheduling is deterministic: exactly 3 items ran.
			for i, v := range out[:3] {
				if v != i*10 {
					t.Errorf("out[%d] = %d, want %d", i, v, i*10)
				}
			}
			if out[3] != 0 {
				t.Errorf("skipped item has result %d", out[3])
			}
		}
	}
}

// TestMapContextPreCancelled proves an already-cancelled context runs
// nothing at all.
func TestMapContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, err := MapContext(ctx, seq(10), 4, func(context.Context, int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if ran.Load() != 0 {
		t.Errorf("%d items ran under a pre-cancelled context", ran.Load())
	}
	if !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

// TestMapAllFailuresReported proves every failing item is joined into
// the returned error, not just the first.
func TestMapAllFailuresReported(t *testing.T) {
	e1 := errors.New("first")
	e2 := errors.New("second")
	_, err := Map([]int{0, 1, 2, 3}, 2, func(x int) (int, error) {
		switch x {
		case 1:
			return 0, e1
		case 3:
			return 0, e2
		}
		return x, nil
	})
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("joined error must carry both failures, got: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "item 1") || !strings.Contains(msg, "item 3") {
		t.Errorf("error %q should name both failing indices", msg)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(nil, 4, func(x int) (int, error) { return x, nil })
	if err != nil || len(out) != 0 {
		t.Error("empty map misbehaved")
	}
}

func TestLogspace(t *testing.T) {
	pts := Logspace(1e-17, 1e-7, 11)
	if len(pts) != 11 {
		t.Fatalf("len = %d", len(pts))
	}
	if math.Abs(pts[0]-1e-17)/1e-17 > 1e-9 || math.Abs(pts[10]-1e-7)/1e-7 > 1e-9 {
		t.Errorf("endpoints: %g %g", pts[0], pts[10])
	}
	// Each step is one decade.
	for i := 1; i < len(pts); i++ {
		if r := pts[i] / pts[i-1]; math.Abs(r-10) > 1e-6 {
			t.Errorf("step %d ratio = %g", i, r)
		}
	}
	if got := Logspace(5, 50, 1); len(got) != 1 || got[0] != 5 {
		t.Errorf("degenerate Logspace = %v", got)
	}
}
