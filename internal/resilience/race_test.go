package resilience

// Race-focused tests for the primitives the distributed fabric leans
// on hardest: the breaker's half-open probe accounting under a stampede
// of concurrent Allow calls, and reservation release idempotence under
// the serve handler's defer-Release pattern. CI runs this package under
// -race; these tests exist to give the detector real interleavings to
// chew on, not just to assert the final counts.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBreakerHalfOpenConcurrentProbeStampede trips the breaker, lets
// the cooldown elapse, then fires many concurrent Allow calls at the
// half-open circuit: exactly one probe may be admitted, no matter how
// the goroutines interleave.
func TestBreakerHalfOpenConcurrentProbeStampede(t *testing.T) {
	const probes = 1
	b, clk := newTestBreaker()
	trip(t, b)
	clk.advance(Cooldown)

	const callers = 64
	var (
		admitted atomic.Int32
		rejected atomic.Int32
		dones    = make(chan func(error), callers)
		start    = make(chan struct{})
		wg       sync.WaitGroup
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			done, err := b.Allow()
			if err != nil {
				if !errors.Is(err, ErrOpen) {
					t.Errorf("rejected with %v, want ErrOpen", err)
				}
				rejected.Add(1)
				return
			}
			admitted.Add(1)
			dones <- done
		}()
	}
	close(start)
	wg.Wait()
	close(dones)

	if got := admitted.Load(); got != probes {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly %d", got, probes)
	}
	if got := rejected.Load(); got != callers-probes {
		t.Fatalf("rejected %d calls, want %d", got, callers-probes)
	}

	// The probe's success closes the circuit.
	for done := range dones {
		done(nil)
	}
	if st := b.State(); st != Closed {
		t.Fatalf("state after probe success = %s, want closed", st)
	}
}

// TestGateReserveDoubleRelease pins the defer-Release idiom the serve
// handlers rely on: Release after Wait already failed (which frees the
// ticket itself), and a plain second Release, must both be no-ops —
// neither panicking nor inflating the gate's capacity.
func TestGateReserveDoubleRelease(t *testing.T) {
	g := NewGate(1, 1)

	holder, err := g.Reserve()
	if err != nil || !holder.slot {
		t.Fatalf("first Reserve = (%+v, %v), want a slot", holder, err)
	}

	queued, err := g.Reserve()
	if err != nil || queued.slot {
		t.Fatalf("second Reserve = (%+v, %v), want a queue ticket", queued, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if werr := queued.Wait(ctx); werr == nil {
		t.Fatal("Wait on a cancelled context succeeded")
	}
	queued.Release() // the handler's deferred Release after a Wait failure
	if n := g.Queued(); n != 0 {
		t.Fatalf("queue depth after Wait-fail + Release = %d, want 0", n)
	}

	holder.Release()
	holder.Release() // double release must not free a second slot
	if n := g.InFlight(); n != 0 {
		t.Fatalf("in-flight after double release = %d, want 0", n)
	}

	// Capacity must be exactly what we started with: one slot, one
	// ticket, then saturation.
	a, err := g.Reserve()
	if err != nil || !a.slot {
		t.Fatalf("Reserve after releases = (%+v, %v), want a slot", a, err)
	}
	bTicket, err := g.Reserve()
	if err != nil || bTicket.slot {
		t.Fatalf("Reserve #2 after releases = (%+v, %v), want a ticket", bTicket, err)
	}
	if _, err := g.Reserve(); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Reserve #3 = %v, want ErrSaturated (double release inflated capacity)", err)
	}
	bTicket.Release()
	a.Release()
}

// TestGateConcurrentReserveReleaseChurn churns reservations across
// goroutines — some run, some abandon, some double-release — and
// asserts the running bound holds throughout. Meant for -race.
func TestGateConcurrentReserveReleaseChurn(t *testing.T) {
	const (
		slots   = 4
		workers = 32
		rounds  = 50
	)
	g := NewGate(slots, workers)
	var (
		inFlight atomic.Int32
		peak     atomic.Int32
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r, err := g.Reserve()
				if err != nil {
					continue // saturated: shed, like the HTTP layer
				}
				if (w+i)%5 == 0 {
					r.Release() // abandon without running
					continue
				}
				if err := r.Wait(context.Background()); err != nil {
					t.Errorf("Wait: %v", err)
					r.Release()
					continue
				}
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				inFlight.Add(-1)
				r.Release()
				if (w+i)%7 == 0 {
					r.Release() // stray double release from a confused caller
				}
			}
		}(w)
	}
	wg.Wait()
	if p := peak.Load(); p > slots {
		t.Fatalf("observed %d concurrent slot holders, bound is %d", p, slots)
	}
	if n := g.InFlight(); n != 0 {
		t.Fatalf("in-flight after churn = %d, want 0", n)
	}
	if n := g.Queued(); n != 0 {
		t.Fatalf("queued after churn = %d, want 0", n)
	}
}
