package stream

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/cmlasu/unsync/internal/campaign"
)

// PlaneConfig configures a Plane. The zero value is usable: 128-record
// window, 95% Wilson interval, wall clock, counting-only DLQ, a frame
// per record.
type PlaneConfig struct {
	// Window is the sliding-window size in records (default 128).
	Window int
	// Z is the Wilson interval multiplier (0 selects 1.96 ≈ 95%).
	Z float64
	// Buffer is the inlet pipe depth (default 256).
	Buffer int
	// DLQ is the dead-letter sidecar path; empty selects counting-only
	// mode (depth is tracked, nothing persists).
	DLQ string
	// Key scopes DLQ replay to one campaign (campaign.Spec Key). An
	// entry written by another campaign sharing the sidecar never
	// suppresses this campaign's captures.
	Key string
	// Clock drives frame throttling (nil selects the wall clock).
	Clock Clock
	// EmitEvery is the minimum gap between published progress frames;
	// zero publishes one per admitted record.
	EmitEvery time.Duration
}

// Frame is one progress snapshot: the plane's whole state in a single
// value, so a subscriber that lost every intermediate frame still
// learns everything from the latest one.
type Frame struct {
	Done       uint64  `json:"done"`        // records admitted (successful + failed)
	Failed     uint64  `json:"failed"`      // harness-failed or malformed records
	Rate       float64 `json:"rate"`        // lifetime SDC rate
	Lo         float64 `json:"lo"`          // Wilson lower bound
	Hi         float64 `json:"hi"`          // Wilson upper bound
	Width      float64 `json:"width"`       // Hi - Lo: the early-stop criterion
	WindowLen  int     `json:"window_len"`  // records currently in the window
	WindowRate float64 `json:"window_rate"` // SDC rate over the window
	DLQDepth   uint64  `json:"dlq_depth"`   // distinct dead-lettered trials
	Dropped    uint64  `json:"dropped"`     // inlet records lost to a shutdown race
	Duplicates uint64  `json:"duplicates"`  // bit-identical replays absorbed
	Final      bool    `json:"final,omitempty"`
}

// FormatFrame renders a frame as the deterministic single-line text
// the -progress readout prints: same frame, same bytes, under any
// clock.
func FormatFrame(f Frame) string {
	s := fmt.Sprintf("done=%d failed=%d sdc=%.4f ci=[%.4f,%.4f] width=%.4f window(%d)=%.4f dlq=%d",
		f.Done, f.Failed, f.Rate, f.Lo, f.Hi, f.Width, f.WindowLen, f.WindowRate, f.DLQDepth)
	if f.Final {
		s += " final"
	}
	return s
}

// Plane composes the operators into the standard pipeline:
//
//	Observe → Pipe → Dedupe → {Window, Tracker, DLQ} → Throttle → Fanout
//
// A single pump goroutine drains the pipe and owns every downstream
// stage, so the stages themselves need no locking; Snapshot shares
// them under one mutex. The plane is strictly observational — it reads
// records, it never produces or reorders them — which is what makes
// Result values and journal bytes bit-identical with the plane on or
// off.
//
// A nil *Plane is a valid no-op observer: Observe, Snapshot, Close,
// DLQDepth and Dropped all tolerate it, so call sites wire
// plane.Observe unconditionally.
type Plane struct {
	in       *Pipe
	dedupe   *Dedupe
	window   *Window
	tracker  *Tracker
	dlq      *DLQ
	fanout   *Fanout[Frame]
	throttle *Throttle

	ctx    context.Context
	cancel context.CancelFunc
	pumped chan struct{} // closed when the pump exits

	mu        sync.Mutex // guards stages + firstErr (pump vs Snapshot/Close)
	firstErr  error
	closeOnce sync.Once
	closeErr  error
}

// NewPlane opens the DLQ sidecar (replaying prior entries) and starts
// the pump. Close releases everything; it must be called after the
// last Observe has returned.
func NewPlane(cfg PlaneConfig) (*Plane, error) {
	if cfg.Window <= 0 {
		cfg.Window = 128
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	dlq, err := OpenDLQ(cfg.DLQ, cfg.Key)
	if err != nil {
		return nil, err
	}
	p := &Plane{
		in:       NewPipe(cfg.Buffer),
		dedupe:   NewDedupe(),
		window:   NewWindow(cfg.Window),
		tracker:  NewTracker(cfg.Z),
		dlq:      dlq,
		fanout:   NewFanout[Frame](),
		throttle: NewThrottle(cfg.Clock, cfg.EmitEvery),
		pumped:   make(chan struct{}),
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	go p.pump()
	return p, nil
}

// Observe offers one trial record to the plane. It waits for inlet
// buffer space (bounded by the pump's drain rate, never by any
// subscriber). Nil-safe.
func (p *Plane) Observe(rec campaign.TrialRecord) {
	if p == nil {
		return
	}
	p.in.Send(p.ctx, rec)
}

// pump is the single consumer: it drains the inlet pipe into the
// stages and publishes throttled frames until Close cancels the
// context, then drains whatever is still buffered and exits.
func (p *Plane) pump() {
	defer close(p.pumped)
	for {
		select {
		case rec := <-p.in.Out():
			p.ingest(rec)
		case <-p.ctx.Done():
			for {
				select {
				case rec := <-p.in.Out():
					p.ingest(rec)
				default:
					return
				}
			}
		}
	}
}

// ingest runs one record through dedupe, window, tracker and DLQ, then
// publishes a frame if the throttle allows. The DLQ offer — an fsync —
// runs between the two critical sections, never under p.mu: a stalled
// disk must not wedge Snapshot and the /metrics scrape behind it. Only
// the pump calls ingest, so the stages stay single-writer throughout.
func (p *Plane) ingest(rec campaign.TrialRecord) {
	p.mu.Lock()
	admitted, err := p.dedupe.Admit(rec)
	if err != nil && p.firstErr == nil {
		p.firstErr = err
	}
	if admitted {
		p.window.Add(rec)
		p.tracker.Add(rec)
	}
	p.mu.Unlock()

	if admitted {
		if _, err := p.dlq.Offer(rec); err != nil {
			p.mu.Lock()
			if p.firstErr == nil {
				p.firstErr = err
			}
			p.mu.Unlock()
		}
	}

	p.mu.Lock()
	emit := p.throttle.Allow()
	var fr Frame
	if emit {
		fr = p.frameLocked(false)
	}
	p.mu.Unlock()
	if emit {
		p.fanout.Publish(fr)
	}
}

// frameLocked builds a Frame; p.mu must be held.
func (p *Plane) frameLocked(final bool) Frame {
	c := p.tracker.Snapshot()
	return Frame{
		Done:       c.Done,
		Failed:     c.Failed,
		Rate:       c.Rate,
		Lo:         c.Lo,
		Hi:         c.Hi,
		Width:      c.Width,
		WindowLen:  p.window.Len(),
		WindowRate: p.window.Rate(),
		DLQDepth:   p.dlq.Depth(),
		Dropped:    p.in.Dropped(),
		Duplicates: p.dedupe.Duplicates(),
		Final:      final,
	}
}

// Snapshot returns the current progress frame. Nil-safe (zero frame).
func (p *Plane) Snapshot() Frame {
	if p == nil {
		return Frame{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frameLocked(false)
}

// Subscribe registers a progress tap with the given buffer depth.
// Frames arrive at most as often as EmitEvery allows; a tap whose
// reader stalls sheds frames but is guaranteed the final one.
// Subscribing after Close yields a closed tap carrying only the final
// frame.
func (p *Plane) Subscribe(buf int) *Tap[Frame] {
	return p.fanout.Subscribe(buf)
}

// DLQDepth reports distinct dead-lettered trials. Nil-safe.
func (p *Plane) DLQDepth() uint64 {
	if p == nil {
		return 0
	}
	return p.dlq.Depth()
}

// Dropped reports inlet records the plane failed to enqueue. Nil-safe.
func (p *Plane) Dropped() uint64 {
	if p == nil {
		return 0
	}
	return p.in.Dropped()
}

// Close stops the pump (draining buffered records first), broadcasts
// the final frame to every tap, closes the DLQ, and returns the first
// error the plane saw — a determinism violation from dedupe or a DLQ
// write failure. Idempotent and nil-safe. Call only after the last
// Observe has returned; records still in flight in a racing Observe
// are counted as dropped, never silently half-processed.
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	p.closeOnce.Do(func() {
		p.cancel()
		<-p.pumped
		p.mu.Lock()
		final := p.frameLocked(true)
		err := p.firstErr
		p.mu.Unlock()
		p.fanout.Close(final)
		if cerr := p.dlq.Close(); err == nil {
			err = cerr
		}
		p.closeErr = err
	})
	return p.closeErr
}
