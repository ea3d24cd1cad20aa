// Package par holds the library's goroutines: Go starts a group and Wait
// joins it — the library's only go statement (ceresvet's goroutines
// analyzer holds that line). On it sit the two fan-outs. For runs
// independent items on a fixed set of workers, in any order; Ordered
// loads items on a fixed set of loaders while the caller consumes them
// strictly in index order, with a memory bound of two loaded items per
// loader. Both stop early when their context is cancelled, and neither
// returns before every goroutine it started has exited.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// Group is a set of goroutines started by Go.
type Group struct{ wg sync.WaitGroup }

// Wait returns once every goroutine of the group has returned.
func (g *Group) Wait() { g.wg.Wait() }

// Go runs fn(ctx, w) for w in [0, n), each on a goroutine of its own,
// and returns at once; Wait joins them. It starts them whatever state ctx
// is in: stopping is up to fn, so a stage that must finish its work after
// a cancellation can.
func Go(ctx context.Context, n int, fn func(ctx context.Context, w int)) *Group {
	g := new(Group)
	g.wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			defer g.wg.Done()
			fn(ctx, w)
		}()
	}
	return g
}

// For runs fn(w, i) for i in [0, n) on up to workers goroutines, w being
// the executing worker's index in [0, workers) — so callers can hand
// each worker its own scratch state without synchronization. It stops
// early (between items) when ctx is cancelled: items already started
// still finish, and ctx's error is returned once the workers drain. With
// one worker or one item, everything runs on the caller's goroutine.
func For(ctx context.Context, n, workers int, fn func(w, i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64 // items handed out
	Go(ctx, min(workers, n), func(ctx context.Context, w int) {
		for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
			fn(w, i)
		}
	}).Wait()
	return ctx.Err()
}

// Ordered runs load(w, i, b) for i in [0, n) on up to loaders goroutines
// — loader w takes the items i ≡ w (mod loaders), in index order — and
// consume(i, b) on the caller's goroutine, in index order, each with the
// batch load filled. Each loader owns two batches and the two alternate:
// it loads item i+loaders while consume(i) holds the other, and cannot
// start item i+2·loaders before consume(i) has returned, so at most two
// loaded batches per loader exist at any time, however large n is. A
// batch is reused once consumed; load must reset what it does not
// overwrite.
//
// consume's first error ends the run and is returned; so is ctx's error,
// checked before every consume — consume never runs once ctx is done.
// Every loader has exited by the time Ordered returns, early or not. A
// single item is loaded and consumed on the caller's goroutine.
func Ordered[B any](ctx context.Context, n, loaders int, load func(w, i int, b *B), consume func(i int, b *B) error) error {
	if err := ctx.Err(); err != nil || n == 0 {
		return err
	}
	if n == 1 {
		var b B
		load(0, 0, &b)
		if err := ctx.Err(); err != nil {
			return err
		}
		return consume(0, &b)
	}
	loaders = min(max(loaders, 1), n)
	type lane struct{ loaded, free chan *B }
	lanes := make([]lane, loaders)
	for w := range lanes {
		lanes[w] = lane{
			loaded: make(chan *B),
			free:   make(chan *B, 2), // both batches fit, so giving one back never blocks
		}
		lanes[w].free <- new(B)
		lanes[w].free <- new(B)
	}
	stop := make(chan struct{})
	// Deferred LIFO: stop closes first, releasing the loaders the Wait
	// then joins.
	defer Go(ctx, loaders, func(_ context.Context, w int) {
		l := lanes[w]
		for i := w; i < n; i += loaders {
			var b *B
			select {
			case b = <-l.free:
			case <-stop:
				return
			}
			load(w, i, b)
			select {
			case l.loaded <- b:
			case <-stop:
				return
			}
		}
	}).Wait()
	defer close(stop)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		l := lanes[i%loaders]
		var b *B
		select {
		case b = <-l.loaded:
		case <-ctx.Done():
			return ctx.Err()
		}
		err := consume(i, b)
		l.free <- b
		if err != nil {
			return err
		}
	}
	return nil
}
