package stream

import (
	"context"
	"sync"
	"testing"

	"github.com/cmlasu/unsync/internal/campaign"
)

// rec builds a minimal classified trial record for operator tests.
func rec(idx int, outcome string) campaign.TrialRecord {
	return campaign.TrialRecord{
		Key:      "k",
		Prog:     "p",
		Seed:     1,
		Index:    idx,
		Space:    "int-reg",
		Attempts: 1,
		Outcome:  outcome,
	}
}

// failedRec builds a retry-exhausted record carrying its attempt chain.
func failedRec(idx int) campaign.TrialRecord {
	r := rec(idx, "")
	r.Attempts = 2
	r.Err = "boom (final)"
	r.AttemptErrs = []string{
		"attempt 1 (space=int-reg reg=3 bit=7 addr=0x0 step=11): boom",
		"attempt 2 (space=mem reg=0 bit=12 addr=0x4010 step=90): boom (final)",
	}
	return r
}

func TestPipeBlockBackpressuresUntilDrained(t *testing.T) {
	p := NewPipe(1)
	ctx := context.Background()
	if !p.Send(ctx, rec(0, "benign")) {
		t.Fatal("first send into empty pipe refused")
	}
	// The second send must block until the consumer frees a slot.
	sent := make(chan bool, 1)
	go func() { sent <- p.Send(ctx, rec(1, "benign")) }()
	select {
	case <-sent:
		t.Fatal("send into a full pipe returned before a drain")
	default:
	}
	if got := (<-p.Out()).Index; got != 0 {
		t.Fatalf("drained index %d, want 0", got)
	}
	if !<-sent {
		t.Fatal("blocked send reported failure after the drain")
	}
	if p.Dropped() != 0 {
		t.Fatalf("pipe dropped %d records", p.Dropped())
	}
}

func TestPipeBlockGivesUpOnDeadContext(t *testing.T) {
	p := NewPipe(1)
	p.Send(context.Background(), rec(0, "benign")) // fill the buffer
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if p.Send(ctx, rec(1, "benign")) {
		t.Fatal("send with a dead context claimed success on a full pipe")
	}
	if p.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", p.Dropped())
	}
}

// A burst from many concurrent producers through a small pipe
// must deliver every record exactly once. Run under -race this is also
// the pipe's data-race check.
func TestPipeBurstConcurrentProducers(t *testing.T) {
	const producers, perProducer = 8, 50
	p := NewPipe(4)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				p.Send(ctx, rec(w*perProducer+i, "benign"))
			}
		}(w)
	}
	seen := make(map[int]bool)
	for len(seen) < producers*perProducer {
		r := <-p.Out()
		if seen[r.Index] {
			t.Fatalf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
	}
	wg.Wait()
	if p.Dropped() != 0 {
		t.Fatalf("pipe dropped %d records under burst", p.Dropped())
	}
}
