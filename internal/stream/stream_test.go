package stream

import (
	"slices"
	"testing"
	"time"
)

// fakeNow replaces the plane's throttling clock with one the test
// advances by hand. Observe runs on the test goroutine, so the clock
// needs no lock.
func fakeNow(p *Plane) (advance func(time.Duration)) {
	now := time.Unix(0, 0)
	p.now = func() time.Time { return now }
	return func(d time.Duration) { now = now.Add(d) }
}

// frameDones closes the plane and returns the Done count of every
// frame the tap received, the final frame last.
func frameDones(t *testing.T, p *Plane, tap *Tap[Frame]) []uint64 {
	t.Helper()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var dones []uint64
	var last Frame
	for fr := range tap.C {
		dones = append(dones, fr.Done)
		last = fr
	}
	if !last.Final {
		t.Fatalf("tap closed without the final frame: %+v", last)
	}
	return dones
}

// Frame throttling is driven entirely by the plane's clock, so the
// -progress cadence is deterministic in tests: same advances, same
// emissions, byte-for-byte identical readouts.
func TestThrottleDeterministicUnderFakeClock(t *testing.T) {
	p, err := NewPlane(PlaneConfig{EmitEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	advance := fakeNow(p)
	tap := p.Subscribe(16)
	p.Observe(rec(0, "benign")) // the first frame always passes
	p.Observe(rec(1, "benign")) // no time elapsed
	advance(50 * time.Millisecond)
	p.Observe(rec(2, "benign")) // half the interval
	advance(60 * time.Millisecond)
	p.Observe(rec(3, "benign")) // the interval elapsed
	p.Observe(rec(4, "benign")) // the slot was consumed
	if got, want := frameDones(t, p, tap), []uint64{1, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("frames at done=%v, want %v (then the final)", got, want)
	}
}

// A zero EmitEvery publishes one frame per record and never reads the
// clock.
func TestThrottleZeroIntervalAllowsAll(t *testing.T) {
	p, err := NewPlane(PlaneConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.now = func() time.Time {
		t.Fatal("unthrottled plane read the clock")
		return time.Time{}
	}
	tap := p.Subscribe(16)
	for i := 0; i < 3; i++ {
		p.Observe(rec(i, "benign"))
	}
	if got, want := frameDones(t, p, tap), []uint64{1, 2, 3, 3}; !slices.Equal(got, want) {
		t.Fatalf("frames at done=%v, want %v (one per record, then the final)", got, want)
	}
}

// FormatFrame is the -progress line contract: pin the exact bytes so a
// drive-by format change shows up as a test diff, not as broken user
// scripts grepping the readout.
func TestFormatFrameGolden(t *testing.T) {
	fr := Frame{
		Done: 128, Failed: 2,
		Rate: 0.125, Lo: 0.0786, Hi: 0.19375, Width: 0.11515,
		WindowLen: 64, WindowRate: 0.09375,
		DLQDepth: 2,
	}
	want := "done=128 failed=2 sdc=0.1250 ci=[0.0786,0.1938] width=0.1152 window(64)=0.0938 dlq=2"
	if got := FormatFrame(fr); got != want {
		t.Fatalf("FormatFrame:\ngot:  %s\nwant: %s", got, want)
	}
	fr.Final = true
	if got := FormatFrame(fr); got != want+" final" {
		t.Fatalf("final frame missing the ' final' marker: %s", got)
	}
}
