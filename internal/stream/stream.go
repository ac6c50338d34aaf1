// Package stream is the campaign's streaming results plane: a small
// library of composable operators over live
// campaign.TrialRecord streams. The final Result of a long campaign is
// a statistic — SDC rate with a Wilson interval over thousands of
// trials — yet until this package existed it only materialized when the
// run ended, and a trial that exhausted its retries vanished into a
// terminal errors.Join. The operators here turn the live trial stream
// into something observable and lossless while it is still running:
//
//   - Window: sliding count-window SDC-rate aggregation, so a rate
//     drift late in a campaign is visible against the lifetime rate;
//   - Tracker: live Wilson-CI convergence tracking (internal/stats),
//     the same interval the campaign's early-stop evaluates — but note
//     that early stopping itself still fires only at round boundaries
//     (campaign roundSize), never mid-round off this tracker;
//   - DLQ: a dead-letter queue that quarantines retry-exhausted and
//     malformed trials to an fsync'd JSONL sidecar carrying the full
//     per-attempt error chain, replayed on open so a restart never
//     duplicates an entry;
//   - Fanout: throttled fan-out of progress frames to any number of
//     taps, each served by a non-blocking send — a slow or stalled
//     subscriber (an SSE client that wandered off) drops frames, never
//     delays trial execution.
//
// Plane composes them into the standard pipeline the campaign engine,
// the fleet coordinator and the job server all wire in through a plain
// observer callback that runs on the producer's goroutine. The plane
// counts every record it is handed; keeping duplicates out is the
// caller's job (campaign.RunContext delivers each trial once, and the
// fleet coordinator filters steal-overlap and re-lease repeats). The
// plane is strictly observational on the result path: Result values
// and checkpoint-journal bytes are bit-identical with the plane
// enabled or disabled (pinned by test and CI smoke).
//
// Frame throttling is driven by an injectable Clock, so the
// determinism linter's wall-clock guarantees hold and the -progress
// readout is testable under a fake clock.
package stream

import (
	"sync"
	"time"
)

// Clock abstracts wall-clock reads so frame throttling is testable and
// deterministic. The zero Plane uses the real clock; tests inject a
// FakeClock and advance it by hand.
type Clock interface {
	Now() time.Time
}

// realClock reads the wall clock.
type realClock struct{}

// Now returns the wall-clock time.
func (realClock) Now() time.Time {
	//unsync:allow-wallclock frame throttling cadence only; never feeds a trial outcome
	return time.Now()
}

// WallClock returns the real wall clock.
func WallClock() Clock { return realClock{} }

// FakeClock is a hand-advanced Clock for deterministic tests.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock starts a fake clock at the given instant.
func NewFakeClock(start time.Time) *FakeClock { return &FakeClock{t: start} }

// Now returns the fake clock's current instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the fake clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Throttle rate-limits emissions against a Clock: Allow reports whether
// at least Every has elapsed since the last allowed emission. A zero or
// negative Every allows everything — the deterministic default for
// tests and for bounded-volume streams.
type Throttle struct {
	clock   Clock
	every   time.Duration
	started bool
	last    time.Time
}

// NewThrottle builds a throttle over clock (nil selects the wall
// clock).
func NewThrottle(clock Clock, every time.Duration) *Throttle {
	if clock == nil {
		clock = WallClock()
	}
	return &Throttle{clock: clock, every: every}
}

// Allow reports whether an emission may happen now, consuming the slot
// if so. The first call always passes.
func (t *Throttle) Allow() bool {
	if t.every <= 0 {
		return true
	}
	now := t.clock.Now()
	if t.started && now.Sub(t.last) < t.every {
		return false
	}
	t.started = true
	t.last = now
	return true
}
