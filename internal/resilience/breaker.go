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
	// HalfOpen admits a limited number of probe calls; one success
	// closes the circuit, one failure reopens it.
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

// BreakerConfig tunes a Breaker. The zero value selects the defaults
// noted per field.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips the
	// circuit Closed→Open. Zero selects 5.
	FailureThreshold int
	// Cooldown is how long the circuit stays Open before admitting
	// probes. Zero selects 30 s.
	Cooldown time.Duration
	// HalfOpenProbes is how many concurrent probe calls HalfOpen
	// admits. Zero selects 1.
	HalfOpenProbes int

	// now overrides the clock in tests; nil uses the wall clock.
	now func() time.Time
}

// Breaker is a three-state circuit breaker guarding a downstream
// dependency: repeated failures trip it open, rejecting calls
// instantly (failing fast instead of queueing doomed work); after a
// cooldown it admits a few probes, and a probe success closes it
// again. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures while Closed
	openedAt time.Time // when the circuit tripped
	probes   int       // in-flight HalfOpen probes
}

// NewBreaker builds a breaker with the given configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if cfg.HalfOpenProbes <= 0 {
		cfg.HalfOpenProbes = 1
	}
	if cfg.now == nil {
		cfg.now = time.Now //unsync:allow-wallclock breaker cooldown is real time, never simulated time
	}
	return &Breaker{cfg: cfg}
}

// Cooldown returns how long the circuit stays Open before admitting
// probes, with the default applied.
func (b *Breaker) Cooldown() time.Duration { return b.cfg.Cooldown }

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
	if b.state == Open && b.cfg.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.state = HalfOpen
		b.probes = 0
	}
}

// Allow asks to start one call. It returns a non-nil done func when
// the call is admitted — the caller MUST invoke done(err) with the
// call's outcome — and ErrOpen when the circuit rejects the call.
func (b *Breaker) Allow() (done func(error), err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tick()
	switch b.state {
	case Open:
		return nil, ErrOpen
	case HalfOpen:
		if b.probes >= b.cfg.HalfOpenProbes {
			return nil, ErrOpen
		}
		b.probes++
	}
	return b.done, nil
}

// done records a call outcome and drives the state machine.
func (b *Breaker) done(callErr error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if callErr == nil {
			b.failures = 0
			return
		}
		if b.failures++; b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case HalfOpen:
		b.probes--
		if callErr == nil {
			b.state = Closed
			b.failures = 0
			return
		}
		b.trip()
	case Open:
		// A HalfOpen probe that finished after another probe already
		// reopened the circuit: nothing further to record.
	}
}

// trip opens the circuit now. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.cfg.now()
	b.failures = 0
	b.probes = 0
}

// Do runs f under the breaker: rejected with ErrOpen when open,
// otherwise f's error is recorded as the call outcome.
func (b *Breaker) Do(f func() error) error {
	done, err := b.Allow()
	if err != nil {
		return err
	}
	err = f()
	done(err)
	return err
}
