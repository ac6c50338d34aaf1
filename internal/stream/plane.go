package stream

import (
	"fmt"
	"sync"
	"time"

	"github.com/cmlasu/unsync/internal/campaign"
	"github.com/cmlasu/unsync/internal/fault"
	"github.com/cmlasu/unsync/internal/stats"
)

// windowSize is the plane's sliding-window length in records.
const windowSize = 128

// PlaneConfig configures a Plane. The zero value is usable:
// counting-only DLQ, a frame per record.
type PlaneConfig struct {
	// DLQ is the dead-letter sidecar path; empty selects counting-only
	// mode (depth is tracked, nothing persists).
	DLQ string
	// Key scopes DLQ replay to one campaign (campaign.Spec Key). An
	// entry written by another campaign sharing the sidecar never
	// suppresses this campaign's captures.
	Key string
	// EmitEvery is the minimum wall-clock gap between published
	// progress frames; zero publishes one per observed record.
	EmitEvery time.Duration
}

// Frame is one progress snapshot: the plane's whole state in a single
// value, so a subscriber that lost every intermediate frame still
// learns everything from the latest one.
type Frame struct {
	Done       uint64  `json:"done"`        // records observed (successful + failed)
	Failed     uint64  `json:"failed"`      // harness-failed or malformed records
	Rate       float64 `json:"rate"`        // lifetime SDC rate
	Lo         float64 `json:"lo"`          // Wilson lower bound
	Hi         float64 `json:"hi"`          // Wilson upper bound
	Width      float64 `json:"width"`       // Hi - Lo: the early-stop criterion
	WindowLen  int     `json:"window_len"`  // records currently in the window
	WindowRate float64 `json:"window_rate"` // SDC rate over the window
	DLQDepth   uint64  `json:"dlq_depth"`   // distinct dead-lettered trials
	Dropped    uint64  `json:"dropped"`     // records observed after Close
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

// Record classes, as the campaign tally counts them.
const (
	classFailed = iota // harness error or unknown outcome name
	classOK            // classified, not SDC
	classSDC           // classified fault.OutcomeSDC
	numClasses
)

// classify sorts a record exactly as campaign.Result.finish does and
// names its dead-letter reason ("" for a healthy record). It is the
// plane's only call of fault.OutcomeByName.
func classify(rec campaign.TrialRecord) (class int, reason string) {
	if rec.Err != "" {
		return classFailed, ReasonRetryExhausted
	}
	o, known := fault.OutcomeByName(rec.Outcome)
	switch {
	case !known:
		return classFailed, ReasonMalformed
	case o == fault.OutcomeSDC:
		return classSDC, ""
	}
	return classOK, ""
}

// tally is the plane's one fold of the record stream: lifetime counts
// per class, which give the same Wilson interval campaign.Result
// reports, and a ring of the last windowSize classes, whose SDC rate
// shows drift that the lifetime rate has long averaged away. Failed
// records count as done and take a window slot, but stay out of both
// rates' denominators.
type tally struct {
	life [numClasses]uint64
	win  [numClasses]int
	ring [windowSize]uint8
	head int // next ring slot to write
	len  int // occupied ring slots
}

// add folds one record's class in, evicting the oldest window slot
// once the ring is full.
func (t *tally) add(class int) {
	t.life[class]++
	if t.len == windowSize {
		t.win[t.ring[t.head]]--
	} else {
		t.len++
	}
	t.ring[t.head] = uint8(class)
	t.win[class]++
	t.head = (t.head + 1) % windowSize
}

// ratio is k/n, or 0 when n is 0.
func ratio(k, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

// Plane is the campaign's streaming results plane:
//
//	Observe → classify → tally → DLQ → throttle → Fanout
//
// Observe runs on the caller's goroutine and classifies each record
// once. The tally and the throttle live under one mutex, and the
// fanout publishes only while it is held. The DLQ offer of a dead
// record (an fsync) runs between two critical sections, never under
// the mutex, so a stalled disk cannot wedge Snapshot and the /metrics
// scrape behind it. Every caller hands the plane each trial exactly
// once: campaign.RunContext per invocation, and fabric.Coordinator
// after its own duplicate check.
//
// The plane is strictly observational — it reads records, it never
// produces or reorders them — which is what makes Result values and
// journal bytes bit-identical with the plane on or off.
//
// A nil *Plane is a valid no-op observer: Observe, Snapshot, Close,
// DLQDepth and Dropped all tolerate it, so call sites wire
// plane.Observe unconditionally.
type Plane struct {
	dlq      *DLQ
	fanout   *Fanout[Frame]
	every    time.Duration    // EmitEvery
	now      func() time.Time // frame throttling clock; tests replace it
	inflight sync.WaitGroup   // Observe calls offering a dead record

	mu       sync.Mutex // guards everything below; Fanout.Publish/Close run under it
	tally    tally
	emitted  bool      // a throttled frame has been published
	last     time.Time // when it was
	firstErr error
	closed   bool
	dropped  uint64
	closeErr error
}

// NewPlane opens the DLQ sidecar, replaying prior entries. Close
// releases it.
func NewPlane(cfg PlaneConfig) (*Plane, error) {
	dlq, err := OpenDLQ(cfg.DLQ, cfg.Key)
	if err != nil {
		return nil, err
	}
	return &Plane{
		dlq:    dlq,
		fanout: NewFanout[Frame](),
		every:  cfg.EmitEvery,
		now:    time.Now, //unsync:allow-wallclock frame throttling cadence only; never feeds a trial outcome
	}, nil
}

// Observe folds one trial record into the plane, dead-letters it if
// it failed, and publishes a frame if the throttle allows. Its cost is
// bounded by the DLQ's fsync, never by any subscriber. After Close the
// record is counted in Dropped and goes nowhere else. Nil-safe.
func (p *Plane) Observe(rec campaign.TrialRecord) {
	if p == nil {
		return
	}
	class, reason := classify(rec)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.dropped++
		return
	}
	p.tally.add(class)
	if reason != "" {
		p.inflight.Add(1)
		p.mu.Unlock()
		_, err := p.dlq.Offer(reason, rec)
		p.mu.Lock()
		p.inflight.Done()
		if err != nil && p.firstErr == nil {
			p.firstErr = err
		}
		if p.closed {
			return
		}
	}
	if p.every > 0 {
		now := p.now()
		if p.emitted && now.Sub(p.last) < p.every {
			return
		}
		p.emitted, p.last = true, now
	}
	p.fanout.Publish(p.frameLocked(false))
}

// frameLocked builds a Frame; p.mu must be held.
func (p *Plane) frameLocked(final bool) Frame {
	t := &p.tally
	n, k := t.life[classOK]+t.life[classSDC], t.life[classSDC]
	fr := Frame{
		Done:       n + t.life[classFailed],
		Failed:     t.life[classFailed],
		Rate:       ratio(k, n),
		WindowLen:  t.len,
		WindowRate: ratio(uint64(t.win[classSDC]), uint64(t.win[classOK]+t.win[classSDC])),
		DLQDepth:   p.dlq.Depth(),
		Dropped:    p.dropped,
		Final:      final,
	}
	fr.Lo, fr.Hi = stats.Wilson(k, n, campaign.Z)
	fr.Width = fr.Hi - fr.Lo
	return fr
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

// Dropped reports records observed after Close. Nil-safe.
func (p *Plane) Dropped() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// Close stops admitting records, waits for any Observe still offering
// to the DLQ, broadcasts the final frame to every tap, closes the DLQ,
// and returns the first DLQ write failure the plane saw. Idempotent
// and nil-safe.
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		defer p.mu.Unlock()
		return p.closeErr
	}
	p.closed = true
	p.mu.Unlock()

	p.inflight.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fanout.Close(p.frameLocked(true))
	p.closeErr = p.firstErr
	if err := p.dlq.Close(); p.closeErr == nil {
		p.closeErr = err
	}
	return p.closeErr
}
