package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ---- Backoff ----

func TestBackoffSleepCaps(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, rng: func() float64 { return 1 }}
	want := []time.Duration{
		100 * time.Millisecond, // attempt 0: base
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		time.Second, // capped
		time.Second, // stays capped
	}
	for n, w := range want {
		if got := b.Sleep(n); got != w {
			t.Errorf("Sleep(%d) = %v, want %v", n, got, w)
		}
	}
}

func TestBackoffFullJitter(t *testing.T) {
	// rng=0 must yield a zero sleep: the jitter range starts at zero
	// (full jitter), not at some floor.
	b := Backoff{Base: time.Second, rng: func() float64 { return 0 }}
	if got := b.Sleep(3); got != 0 {
		t.Errorf("Sleep with rng=0 = %v, want 0", got)
	}
}

func TestRetrySucceedsAfterFailures(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), Backoff{Base: time.Microsecond, Attempts: 5}, func(context.Context) error {
		if calls++; calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Retry(context.Background(), Backoff{Base: time.Microsecond, Attempts: 3}, func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err = %v, calls = %d", err, calls)
	}
}

func TestRetryCancelledDuringSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	calls := 0
	err := Retry(ctx, Backoff{Base: time.Hour, Attempts: 5, rng: func() float64 { return 1 }},
		func(context.Context) error {
			calls++
			cancel()
			return boom
		})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (cancel must interrupt the hour-long sleep)", calls)
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want Canceled and the last failure joined", err)
	}
}

func TestRetryPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, Backoff{}, func(context.Context) error { calls++; return nil })
	if calls != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("calls = %d, err = %v", calls, err)
	}
}

// ---- Breaker ----

// fakeClock is a manually advanced clock for breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTestBreaker builds a breaker on a fake clock.
func newTestBreaker() (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker()
	b.now = clk.now
	return b, clk
}

// call runs f under the breaker the way serve and fabric do: Allow,
// then report f's outcome to done.
func call(b *Breaker, f func() error) error {
	done, err := b.Allow()
	if err != nil {
		return err
	}
	err = f()
	done(err)
	return err
}

// trip fails failureThreshold consecutive calls.
func trip(t *testing.T, b *Breaker) {
	t.Helper()
	for i := 0; i < failureThreshold; i++ {
		if err := call(b, func() error { return errors.New("boom") }); err == nil {
			t.Fatal("failing call reported success")
		}
	}
	if got := b.State(); got != Open {
		t.Fatalf("state after %d failures = %v, want Open", failureThreshold, got)
	}
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	b, _ := newTestBreaker()
	boom := errors.New("boom")
	for i := 0; i < 5; i++ {
		if got := b.State(); got != Closed {
			t.Fatalf("state after %d failures = %v, want Closed", i, got)
		}
		if err := call(b, func() error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want Open", got)
	}
	if err := call(b, func() error { t.Fatal("ran while open"); return nil }); !errors.Is(err, ErrOpen) {
		t.Fatalf("open call err = %v, want ErrOpen", err)
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b, _ := newTestBreaker()
	boom := errors.New("boom")
	for i := 0; i < 10; i++ {
		for j := 0; j < failureThreshold-1; j++ {
			call(b, func() error { return boom })
		}
		call(b, func() error { return nil }) // resets the consecutive count
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want Closed (failures never consecutive)", got)
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	b, clk := newTestBreaker()
	trip(t, b)
	clk.advance(Cooldown - time.Nanosecond)
	if b.State() != Open {
		t.Fatal("circuit half-opened before the cooldown elapsed")
	}
	clk.advance(time.Nanosecond)
	if b.State() != HalfOpen {
		t.Fatal("cooldown did not half-open the circuit")
	}
	if err := call(b, func() error { return nil }); err != nil {
		t.Fatalf("probe err = %v", err)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after successful probe = %v, want Closed", got)
	}
}

func TestBreakerHalfOpenProbeReopens(t *testing.T) {
	b, clk := newTestBreaker()
	trip(t, b)
	clk.advance(Cooldown)
	if err := call(b, func() error { return errors.New("still down") }); err == nil {
		t.Fatal("probe error swallowed")
	}
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want Open", got)
	}
	// A second cooldown admits another probe.
	clk.advance(Cooldown)
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after second cooldown = %v, want HalfOpen", got)
	}
}

// A call admitted while the circuit was Closed that finishes during
// HalfOpen is not the probe: it must neither close the circuit under
// the probe in flight nor stop the probe's failure from reopening it.
func TestBreakerStaleCallDoesNotSettleProbe(t *testing.T) {
	b, clk := newTestBreaker()
	stale, err := b.Allow()
	if err != nil {
		t.Fatalf("call admitted while closed: %v", err)
	}
	trip(t, b)
	clk.advance(Cooldown)
	probe, err := b.Allow()
	if err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	stale(nil)
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow with the probe in flight after a stale success: err = %v, want ErrOpen", err)
	}
	probe(errors.New("still down"))
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want Open", got)
	}
}

func TestBreakerHalfOpenLimitsProbes(t *testing.T) {
	b, clk := newTestBreaker()
	trip(t, b)
	clk.advance(Cooldown)
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("first probe rejected: %v", err)
	}
	// Second concurrent probe must be rejected: HalfOpen admits one.
	if _, err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second probe err = %v, want ErrOpen", err)
	}
	done(nil)
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want Closed", got)
	}
}

func TestBreakerConcurrent(t *testing.T) {
	b, _ := newTestBreaker()
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				call(b, func() error {
					if (w+i)%3 == 0 {
						return boom
					}
					return nil
				})
				b.State()
			}
		}(w)
	}
	wg.Wait()
}

// ---- Gate ----

func TestGateAdmitsUpToRunning(t *testing.T) {
	g := NewGate(2, 0)
	r1, err := g.Reserve()
	if err != nil || !r1.slot {
		t.Fatalf("first reservation: err=%v, want a slot", err)
	}
	r2, err := g.Reserve()
	if err != nil || !r2.slot {
		t.Fatalf("second reservation: err=%v, want a slot", err)
	}
	// No queue: a third concurrent call is shed.
	if _, err := g.Reserve(); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	r1.Release()
	r3, err := g.Reserve()
	if err != nil || !r3.slot {
		t.Fatalf("slot freed but reserve failed: %v", err)
	}
	r3.Release()
	r2.Release()
}

func TestGateBoundedQueue(t *testing.T) {
	g := NewGate(1, 1)
	running, err := g.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	// One caller may queue...
	queued, err := g.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- queued.Wait(context.Background()) }()
	// ...and the next one is shed instantly, whether or not the queued
	// one has started waiting.
	if _, err := g.Reserve(); !errors.Is(err, ErrSaturated) {
		t.Fatalf("overflow err = %v, want ErrSaturated", err)
	}
	running.Release()
	if err := <-waited; err != nil {
		t.Fatalf("queued caller err = %v", err)
	}
	queued.Release()
	if g.InFlight() != 0 || g.Queued() != 0 {
		t.Fatalf("leaked: inflight=%d queued=%d", g.InFlight(), g.Queued())
	}
}

func TestGateCancelWhileQueued(t *testing.T) {
	g := NewGate(1, 4)
	running, err := g.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	queued, err := g.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- queued.Wait(ctx) }()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := g.Queued(); got != 0 {
		t.Fatalf("queue ticket leaked: Queued() = %d", got)
	}
	running.Release()
}

func TestGateConcurrentNeverExceedsLimit(t *testing.T) {
	const limit = 3
	g := NewGate(limit, 64)
	var inFlight, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := g.Reserve()
			if err != nil {
				return
			}
			defer r.Release()
			if err := r.Wait(context.Background()); err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			inFlight.Add(-1)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > limit {
		t.Fatalf("peak concurrency %d exceeds limit %d", p, limit)
	}
	if g.InFlight() != 0 {
		t.Fatalf("slots leaked: %d", g.InFlight())
	}
}

func TestGateReserveAdmissionOrder(t *testing.T) {
	g := NewGate(1, 1)
	r1, err := g.Reserve()
	if err != nil || !r1.slot {
		t.Fatalf("first reservation: err=%v slot=%v, want a slot", err, r1 != nil && r1.slot)
	}
	r2, err := g.Reserve()
	if err != nil || r2.slot {
		t.Fatalf("second reservation: err=%v, want a queue ticket", err)
	}
	if _, err := g.Reserve(); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third reservation err = %v, want ErrSaturated", err)
	}
	// Freeing the slot lets the ticket convert.
	waited := make(chan error, 1)
	go func() { waited <- r2.Wait(context.Background()) }()
	r1.Release()
	if err := <-waited; err != nil {
		t.Fatalf("Wait after slot freed: %v", err)
	}
	r2.Release()
	if g.InFlight() != 0 || g.Queued() != 0 {
		t.Fatalf("leaked: inflight=%d queued=%d", g.InFlight(), g.Queued())
	}
}

func TestGateReservationWaitCancel(t *testing.T) {
	g := NewGate(1, 2)
	r1, err := g.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r2.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want Canceled", err)
	}
	r2.Release() // no-op after a failed Wait
	r1.Release()
	if g.InFlight() != 0 || g.Queued() != 0 {
		t.Fatalf("leaked: inflight=%d queued=%d", g.InFlight(), g.Queued())
	}
}

// An overflow reservation holds no queue ticket, so a full gate still
// sheds new work at Reserve, yet its Wait blocks for a running slot
// instead of running beside the slot holder.
func TestGateOverflowWaitsForSlot(t *testing.T) {
	g := NewGate(1, 1)
	running, err := g.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	queued, err := g.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	over := g.Overflow()
	if g.Queued() != 1 {
		t.Fatalf("Queued() = %d with an overflow reservation, want 1 (no ticket)", g.Queued())
	}
	if _, err := g.Reserve(); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Reserve beside an overflow reservation = %v, want ErrSaturated", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := over.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("overflow Wait with the slot held = %v, want it to block until the deadline", err)
	}
	over.Release() // no-op after a failed Wait

	over = g.Overflow()
	running.Release()
	if err := over.Wait(context.Background()); err != nil {
		t.Fatalf("overflow Wait after the slot freed: %v", err)
	}
	if g.InFlight() != 1 || g.Queued() != 1 {
		t.Fatalf("inflight=%d queued=%d, want the overflow's slot and the queued ticket", g.InFlight(), g.Queued())
	}
	over.Release()
	queued.Release()
	if g.InFlight() != 0 || g.Queued() != 0 {
		t.Fatalf("leaked: inflight=%d queued=%d", g.InFlight(), g.Queued())
	}
}
