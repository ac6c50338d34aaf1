package resilience

import (
	"context"
	"errors"
)

// ErrSaturated reports that the admission gate's bounded queue is full
// and the request was shed rather than enqueued. Servers map it to
// 429 Retry-After.
var ErrSaturated = errors.New("resilience: admission queue saturated")

// Gate is a bounded-queue admission controller: up to Running calls
// execute concurrently, up to Waiting more may queue for a slot, and
// everything beyond that is rejected instantly with ErrSaturated.
// Rejecting at admission keeps memory bounded under overload — the
// alternative, an unbounded queue, converts overload into OOM.
type Gate struct {
	running chan struct{} // slot tokens: buffered to the concurrency limit
	waiting chan struct{} // queue tickets: buffered to the queue depth
}

// NewGate builds a gate admitting running concurrent calls with a
// bounded queue of waiting further calls. Both bounds must be >= 1
// for running and >= 0 for waiting; out-of-range values are clamped.
func NewGate(running, waiting int) *Gate {
	if running < 1 {
		running = 1
	}
	if waiting < 0 {
		waiting = 0
	}
	return &Gate{
		running: make(chan struct{}, running),
		waiting: make(chan struct{}, waiting),
	}
}

// Reservation is a claimed place in the gate: an execution slot
// (ready to run), a queue ticket (must Wait for a slot), or, from
// Overflow, nothing yet (must Wait for a slot). Admission is decided
// synchronously at submit time; the wait happens later on the job's
// own goroutine.
type Reservation struct {
	g      *Gate
	slot   bool // holds a running slot
	ticket bool // holds a queue ticket
	done   bool // released, or its Wait failed
}

// Reserve claims a place without blocking: an execution slot when one
// is free, else a queue ticket, else ErrSaturated. A successful
// reservation must be finished with Wait+Release (run the work) or
// Release alone (abandon it).
func (g *Gate) Reserve() (*Reservation, error) {
	select {
	case g.running <- struct{}{}:
		return &Reservation{g: g, slot: true}, nil
	default:
	}
	select {
	case g.waiting <- struct{}{}:
		return &Reservation{g: g, ticket: true}, nil
	default:
		return nil, ErrSaturated
	}
}

// Overflow reserves a place for work the gate already admitted once,
// such as the jobs a restarted server replays beyond its capacity. It
// holds no queue ticket, so new Reserve calls still see the whole
// queue, and it never sheds: its Wait blocks for a running slot like a
// queued reservation's. Finish it as one from Reserve.
func (g *Gate) Overflow() *Reservation { return &Reservation{g: g} }

// Wait converts the reservation into an execution slot, blocking until
// one frees or ctx is cancelled (returning the cancellation cause and
// releasing what the reservation holds). It returns immediately when
// the reservation already holds a slot.
func (r *Reservation) Wait(ctx context.Context) error {
	if r.slot {
		return nil
	}
	select {
	case r.g.running <- struct{}{}:
		r.slot = true
		r.dropTicket()
		return nil
	case <-ctx.Done():
		r.Release()
		return context.Cause(ctx)
	}
}

// dropTicket returns the reservation's queue ticket, if it holds one.
func (r *Reservation) dropTicket() {
	if r.ticket {
		r.ticket = false
		<-r.g.waiting
	}
}

// Release returns whatever the reservation holds. Safe to call more
// than once, and after a failed Wait.
func (r *Reservation) Release() {
	if r.done {
		return
	}
	r.done = true
	if r.slot {
		<-r.g.running
	}
	r.dropTicket()
}

// InFlight reports how many execution slots are currently held.
func (g *Gate) InFlight() int { return len(g.running) }

// Queued reports how many queue tickets are held. Overflow
// reservations waiting for a slot hold none and are not counted.
func (g *Gate) Queued() int { return len(g.waiting) }
