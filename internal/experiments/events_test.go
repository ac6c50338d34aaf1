package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/cmlasu/unsync/internal/cmp"
)

// TestEventStudyQuick runs the quick event study end to end: all four
// schemes report with the baseline first, topdown fractions partition
// the slots, and the non-baseline schemes carry deltas.
func TestEventStudyQuick(t *testing.T) {
	res, err := Events(context.Background(), QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schemes) != 4 {
		t.Fatalf("Events returned %d schemes, want 4", len(res.Schemes))
	}
	if res.Schemes[0].Scheme != cmp.Baseline || res.Schemes[0].Delta != nil {
		t.Fatalf("first entry must be the baseline without a delta: %s", res.Schemes[0].Scheme)
	}
	for _, se := range res.Schemes {
		if len(se.Counts) == 0 {
			t.Errorf("%s: empty counts", se.Scheme)
		}
		td := se.Topdown
		if sum := td.Retiring + td.Frontend + td.Backend + td.BadGate; math.Abs(sum-1.0) > 1e-9 {
			t.Errorf("%s: topdown fractions sum to %.12f, want 1.0", se.Scheme, sum)
		}
		if se.Scheme != cmp.Baseline && len(se.Delta) == 0 {
			t.Errorf("%s: missing delta vs baseline", se.Scheme)
		}
	}
	if txt := res.RenderTopdown().Text() + res.RenderEvents().Text(); !strings.Contains(txt, "tmr") ||
		!strings.Contains(txt, "TOPDOWN.SLOTS") {
		t.Error("render missing a scheme column or the slot counter")
	}
}
