// Package sweep provides the parameter-sweep plumbing the figure
// experiments share: deterministic parallel mapping over a work list,
// the Pair point type and Logspace.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrAborted reports that a sweep stopped scheduling new items before
// the work list was exhausted — because the context was cancelled or a
// worker panicked. It is joined alongside the per-item failures so
// callers can distinguish "every item ran, some failed" from "the sweep
// was cut short".
var ErrAborted = errors.New("sweep: aborted before all items ran")

// Map applies f to every item on up to workers goroutines and returns
// the results in input order. An error in one item cancels nothing —
// the remaining items still run and every failure is reported, joined
// into one error carrying each failing item's index. A panic inside f
// is recovered into that item's error AND stops scheduling of not-yet-
// started items (a panic marks a broken harness, not a bad data point;
// grinding through the rest of the list would repeat it): the joined
// error then also carries ErrAborted with the count of skipped items.
// workers <= 0 selects NumCPU.
func Map[T, R any](items []T, workers int, f func(T) (R, error)) ([]R, error) {
	return MapContext(context.Background(), items, workers,
		func(_ context.Context, item T) (R, error) { return f(item) })
}

// Workers is the pool size Map and MapContext use for a workers
// argument: workers itself, or NumCPU when workers <= 0. (A list shorter
// than the pool runs on one goroutine per item.)
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.NumCPU()
	}
	return workers
}

// MapContext is Map under a context: cancelling ctx stops scheduling
// new items within one item quantum (items already running finish —
// or observe ctx themselves and return early). The partial results are
// still returned in input order, with the zero R for items that never
// ran, and the joined error carries ErrAborted and ctx's cancellation
// cause alongside any per-item failures.
func MapContext[T, R any](ctx context.Context, items []T, workers int, f func(context.Context, T) (R, error)) ([]R, error) {
	workers = Workers(workers)
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]R, len(items))
	errs := make([]error, len(items))
	started := make([]bool, len(items))
	var panicked atomic.Bool
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicked.Store(true)
				errs[i] = fmt.Errorf("panic: %v", r)
			}
		}()
		out[i], errs[i] = f(ctx, items[i])
	}
	// abort reports whether scheduling must stop before the next item.
	abort := func() bool { return panicked.Load() || ctx.Err() != nil }
	if workers <= 1 {
		for i := range items {
			if abort() {
				break
			}
			started[i] = true
			run(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					run(i)
				}
			}()
		}
	dispatch:
		for i := range items {
			if abort() {
				break
			}
			// Block handing the item to a worker, but keep watching the
			// context so a cancel with every worker busy still stops the
			// dispatch loop rather than queueing the whole remainder.
			select {
			case next <- i:
				started[i] = true
			case <-ctx.Done():
				break dispatch
			}
		}
		close(next)
		wg.Wait()
	}
	var failures []error
	skipped := 0
	for i, err := range errs {
		if !started[i] {
			skipped++
			continue
		}
		if err != nil {
			failures = append(failures, fmt.Errorf("sweep: item %d: %w", i, err))
		}
	}
	if skipped > 0 {
		failures = append(failures, fmt.Errorf("%w: %d of %d items never ran", ErrAborted, skipped, len(items)))
		if cause := context.Cause(ctx); cause != nil {
			failures = append(failures, cause)
		}
	}
	return out, errors.Join(failures...)
}

// Pair is one point of a 2-dimensional sweep.
type Pair[A, B any] struct {
	X A
	Y B
}

// Logspace returns n points spread multiplicatively from start to end
// (inclusive); start and end must be positive.
func Logspace(start, end float64, n int) []float64 {
	if n < 2 {
		return []float64{start}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = start * math.Pow(end/start, float64(i)/float64(n-1))
	}
	return out
}
