package stream

import (
	"sync"
	"sync/atomic"
)

// Fanout broadcasts values to any number of subscriber taps without
// ever waiting for one: a tap whose buffer is full loses the value
// (counted per tap), so a stalled SSE reader or a wedged progress
// writer can never slow the plane's Observe. Progress frames are
// cosmetic — the next one supersedes the last — which is exactly the
// traffic this tradeoff is safe for; the accounting itself (the
// tally, the DLQ) never goes through a fanout.
//
// Publish and Close follow a single-sender discipline: the plane calls
// them only while holding its own mutex, which is what makes closing a
// tap's channel race-free. Subscribe and Cancel are safe from any
// goroutine.
type Fanout[T any] struct {
	mu       sync.Mutex
	taps     map[*Tap[T]]struct{}
	closed   bool
	final    T
	hasFinal bool
}

// Tap is one subscriber's view: receive from C until it closes. The
// last value delivered before close is the fanout's final value — a
// tap is guaranteed to observe it even if every intermediate frame was
// shed while the reader stalled.
type Tap[T any] struct {
	C       <-chan T
	ch      chan T
	f       *Fanout[T]
	dropped atomic.Uint64
	done    bool // closed or cancelled; guarded by f.mu
}

// NewFanout builds an empty fanout.
func NewFanout[T any]() *Fanout[T] {
	return &Fanout[T]{taps: make(map[*Tap[T]]struct{})}
}

// Subscribe registers a tap with the given buffer depth (minimum 1).
// Subscribing to a closed fanout still works: the tap arrives already
// closed, carrying only the final value — how a late SSE client gets
// its terminal frame.
func (f *Fanout[T]) Subscribe(buf int) *Tap[T] {
	if buf < 1 {
		buf = 1
	}
	t := &Tap[T]{ch: make(chan T, buf)}
	t.C = t.ch
	t.f = f
	f.mu.Lock()
	if f.closed {
		final, has := f.final, f.hasFinal
		f.mu.Unlock()
		// The tap is unshared and its buffer holds at least one slot,
		// so this send cannot block; done outside the lock regardless.
		if has {
			t.ch <- final
		}
		t.done = true
		close(t.ch)
		return t
	}
	f.taps[t] = struct{}{}
	f.mu.Unlock()
	return t
}

// Publish offers v to every live tap without blocking; full taps shed
// it. Single sender only (under Plane.mu).
func (f *Fanout[T]) Publish(v T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	for t := range f.taps {
		select {
		case t.ch <- v:
		default:
			t.dropped.Add(1)
		}
	}
}

// Close delivers final to every tap — evicting the tap's oldest
// buffered values if needed, so a reader that never kept up still sees
// the terminal state — then closes every tap channel. Single sender
// only (under Plane.mu). Idempotent.
func (f *Fanout[T]) Close(final T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	f.final = final
	f.hasFinal = true
	for t := range f.taps {
		for delivered := false; !delivered; {
			select {
			case t.ch <- final:
				delivered = true
			default:
				// Buffer full: shed the oldest frame to make room. The
				// reader may race us for it; either way a slot frees up
				// and the loop makes progress.
				select {
				case <-t.ch:
					t.dropped.Add(1)
				default:
				}
			}
		}
		t.done = true
		close(t.ch)
	}
	f.taps = nil
}

// Dropped counts values this tap shed while its reader lagged.
func (t *Tap[T]) Dropped() uint64 { return t.dropped.Load() }

// Cancel unsubscribes the tap and closes its channel; further
// published values skip it. Safe to call concurrently with Publish and
// idempotent against Close.
func (t *Tap[T]) Cancel() {
	f := t.f
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if t.done {
		return
	}
	delete(f.taps, t)
	t.done = true
	close(t.ch)
}
