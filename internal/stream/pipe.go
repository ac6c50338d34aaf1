package stream

import (
	"context"
	"sync/atomic"

	"github.com/cmlasu/unsync/internal/campaign"
)

// Pipe is the bounded-buffer stage at the head of a streaming
// pipeline: producers Send, one consumer drains Out. A full buffer
// backpressures the producer until the consumer drains a slot, so
// nothing on the accounting path (DLQ capture, convergence tracking)
// is ever lost; an unbounded queue would just move the overload
// somewhere invisible.
type Pipe struct {
	ch      chan campaign.TrialRecord
	dropped atomic.Uint64
}

// NewPipe builds a pipe with the given buffer depth (minimum 1).
func NewPipe(depth int) *Pipe {
	if depth < 1 {
		depth = 1
	}
	return &Pipe{ch: make(chan campaign.TrialRecord, depth)}
}

// Send offers one record to the pipe, waiting for buffer space and
// giving up only when ctx dies. It returns false when the context died
// first; the loss is counted in Dropped.
func (p *Pipe) Send(ctx context.Context, rec campaign.TrialRecord) bool {
	select {
	case p.ch <- rec:
		return true
	case <-ctx.Done():
		p.dropped.Add(1)
		return false
	}
}

// Out is the consumer side. The pipe is never closed (producers may
// race a shutdown); consumers select on it against their own done
// signal.
func (p *Pipe) Out() <-chan campaign.TrialRecord { return p.ch }

// Dropped counts records lost to a shutdown race. Safe to read
// concurrently.
func (p *Pipe) Dropped() uint64 { return p.dropped.Load() }
