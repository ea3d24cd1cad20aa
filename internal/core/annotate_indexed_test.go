package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// countdownCtx is a context whose Err flips to Canceled after a fixed
// number of Err() polls — a deterministic way to cancel "mid-annotation",
// since par.For polls Err between items.
type countdownCtx struct {
	mu   sync.Mutex
	left int
	done chan struct{}
}

func newCountdownCtx(polls int) *countdownCtx {
	return &countdownCtx{left: polls, done: make(chan struct{})}
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return c.done }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left > 0 {
		c.left--
		return nil
	}
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	return context.Canceled
}

// TestAnnotateCtxCancellationMidRun cancels after a handful of
// ctx.Err() polls — deep inside the per-page phases — and expects the
// context error back with no partial result.
func TestAnnotateCtxCancellationMidRun(t *testing.T) {
	pages, K, _, _ := buildMovieSite(t, 16, defaultStyle())
	for _, polls := range []int{0, 1, 5, 20} {
		res, err := Annotate(newCountdownCtx(polls), pages, K.BuildIndex(), TopicOptions{}, RelationOptions{}, 1)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: err = %v, want context.Canceled", polls, err)
		}
		if res != nil {
			t.Fatalf("polls=%d: cancelled annotation returned a partial result", polls)
		}
	}
	// Sanity: an unlimited budget completes.
	if _, err := Annotate(context.Background(), pages, K.BuildIndex(), TopicOptions{}, RelationOptions{}, 1); err != nil {
		t.Fatal(err)
	}
}

// TestAnnotateCtxCancelledUpfront covers the already-cancelled-context
// fast path at every worker count.
func TestAnnotateCtxCancelledUpfront(t *testing.T) {
	pages, K, _, _ := buildMovieSite(t, 4, defaultStyle())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := Annotate(ctx, pages, K.BuildIndex(), TopicOptions{}, RelationOptions{}, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if _, err := IdentifyTopics(ctx, pages, K.BuildIndex(), TopicOptions{}, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: IdentifyTopics err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestAnnotateCtxDeterministicAcrossWorkers: annotation output — topics,
// annotations, order, flags — must be identical at Workers=1 and
// Workers=8. Every cross-page aggregation is sequential in page order, so
// scheduling must not leak into the result.
func TestAnnotateCtxDeterministicAcrossWorkers(t *testing.T) {
	pages, K, _, _ := buildMovieSite(t, 24, defaultStyle())
	base, err := Annotate(context.Background(), pages, K.BuildIndex(), TopicOptions{}, RelationOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Annotations) == 0 {
		t.Fatal("fixture produced no annotations; determinism test vacuous")
	}
	for _, workers := range []int{2, 8} {
		for round := 0; round < 3; round++ {
			got, err := Annotate(context.Background(), pages, K.BuildIndex(), TopicOptions{}, RelationOptions{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("workers=%d round %d: annotation output differs from Workers=1", workers, round)
			}
		}
	}
}
