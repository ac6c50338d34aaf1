package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOpen reports that the circuit breaker is open and the call was
// rejected without running.
var ErrOpen = errors.New("resilience: circuit open")

// State is the circuit breaker's position.
type State int

const (
	// Closed passes every call through, counting failures.
	Closed State = iota
	// Open rejects every call until the cooldown elapses.
	Open
	// HalfOpen admits one probe call; its success closes the circuit,
	// its failure reopens it.
	HalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// The breaker's fixed tuning: serve and fabric both run with it.
const (
	// failureThreshold is the consecutive-failure count that trips the
	// circuit Closed→Open.
	failureThreshold = 5
	// Cooldown is how long the circuit stays Open before admitting its
	// one HalfOpen probe.
	Cooldown = 30 * time.Second
)

// Breaker is a three-state circuit breaker guarding a downstream
// dependency: five consecutive failures trip it open, rejecting calls
// instantly (failing fast instead of queueing doomed work); after the
// cooldown it admits one probe, and a probe success closes it again.
// Safe for concurrent use.
type Breaker struct {
	now func() time.Time // the cooldown clock; tests replace it

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures while Closed
	openedAt time.Time // when the circuit tripped
	probing  bool      // the HalfOpen probe is in flight
}

// NewBreaker builds a closed breaker.
func NewBreaker() *Breaker {
	return &Breaker{
		now: time.Now, //unsync:allow-wallclock breaker cooldown is real time, never simulated time
	}
}

// State reports the breaker's current position (after applying any due
// Open→HalfOpen transition).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tick()
	return b.state
}

// tick applies the time-based Open→HalfOpen transition. Callers hold
// b.mu.
func (b *Breaker) tick() {
	if b.state == Open && b.now().Sub(b.openedAt) >= Cooldown {
		b.state = HalfOpen
		b.probing = false
	}
}

// Allow asks to start one call. It returns a non-nil done func when
// the call is admitted — the caller MUST invoke done(err) with the
// call's outcome — and ErrOpen when the circuit rejects the call. Only
// the HalfOpen probe's done can settle the probe; the done of a call
// admitted while Closed counts only if the circuit is still Closed.
func (b *Breaker) Allow() (done func(error), err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tick()
	switch b.state {
	case Open:
		return nil, ErrOpen
	case HalfOpen:
		if b.probing {
			return nil, ErrOpen
		}
		b.probing = true
		return b.probeDone, nil
	}
	return b.closedDone, nil
}

// closedDone records the outcome of a call admitted while Closed. A
// call that finishes after the circuit tripped has nothing further to
// record: the probe, not it, decides the way back to Closed.
func (b *Breaker) closedDone(callErr error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Closed {
		return
	}
	if callErr == nil {
		b.failures = 0
		return
	}
	if b.failures++; b.failures >= failureThreshold {
		b.trip()
	}
}

// probeDone records the HalfOpen probe's outcome: success closes the
// circuit, failure reopens it.
func (b *Breaker) probeDone(callErr error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if callErr == nil {
		b.state = Closed
		b.failures = 0
		return
	}
	b.trip()
}

// trip opens the circuit now. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.now()
	b.failures = 0
	b.probing = false
}
