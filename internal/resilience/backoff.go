// Package resilience provides the failure-handling primitives of the
// campaign job service and the fleet coordinator: retry with
// exponentially growing, fully jittered backoff; a three-state circuit
// breaker; and a bounded-queue admission semaphore for load shedding.
//
// Unlike the simulation packages, resilience is deliberately
// non-deterministic: jitter draws from math/rand/v2 and the breaker
// reads a wall clock. Neither ever feeds a measurement — the
// determinism contract of the engines (and the campaign journal) is
// untouched.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// Backoff describes an exponential backoff schedule with full jitter:
// attempt n (0-based) sleeps a uniformly random duration in
// [0, min(Base*2^n, Max)]. Full jitter — rather than equal or
// decorrelated jitter — minimizes synchronized retry bursts from many
// clients while keeping the expected total wait close to plain
// exponential backoff.
type Backoff struct {
	// Base is the cap of the first attempt's sleep. Zero selects
	// 100 ms.
	Base time.Duration
	// Max bounds every attempt's sleep cap. Zero selects 10 s.
	Max time.Duration
	// Attempts is the total number of tries (the first call plus
	// retries). Zero selects 4.
	Attempts int

	// rng overrides the jitter source in tests; nil uses the package
	// default (math/rand/v2 top-level, which is safe for concurrent
	// use).
	rng func() float64
}

// withDefaults fills zero fields with the package defaults.
func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 10 * time.Second
	}
	if b.Attempts <= 0 {
		b.Attempts = 4
	}
	return b
}

// Sleep returns the jittered sleep before retry attempt n (0-based):
// uniform in [0, cap_n] where cap_n = min(Base*2^n, Max).
func (b Backoff) Sleep(attempt int) time.Duration {
	b = b.withDefaults()
	limit := float64(b.Base)
	for i := 0; i < attempt; i++ {
		limit *= 2
		if limit >= float64(b.Max) {
			limit = float64(b.Max)
			break
		}
	}
	f := b.rng
	if f == nil {
		f = rand.Float64
	}
	return time.Duration(f() * limit)
}

// Retry runs f up to b.Attempts times, sleeping the jittered backoff
// between failures. It stops early when f succeeds or when ctx is
// cancelled (the cancellation cause is joined with the last failure).
// The sleep itself is interruptible by ctx.
func Retry(ctx context.Context, b Backoff, f func(ctx context.Context) error) error {
	b = b.withDefaults()
	var last error
	for attempt := 0; attempt < b.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return errors.Join(context.Cause(ctx), last)
		}
		err := f(ctx)
		if err == nil {
			return nil
		}
		last = err
		if attempt == b.Attempts-1 {
			break
		}
		t := time.NewTimer(b.Sleep(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return errors.Join(context.Cause(ctx), last)
		}
	}
	return fmt.Errorf("resilience: %d attempts failed: %w", b.Attempts, last)
}
