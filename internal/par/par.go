// Package par holds the library's goroutines: Go starts a group and Wait
// joins it — the library's only go statement (ceresvet's goroutines
// analyzer holds that line). On it sit the three fan-outs. For runs
// independent items on a fixed set of workers, in any order; Ordered
// loads items on a fixed set of loaders while the caller consumes them
// strictly in index order, with a memory bound of two loaded items per
// loader; Stream runs items while the caller is still producing them, one
// worker beside the producer and the rest once it is done. All three stop
// early when their context is cancelled, and none returns before every
// goroutine it started has exited.
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

// Feed carries items from the one goroutine that produces them to the
// workers of a Stream call, each as soon as it is pushed: an atomic count
// publishes it, and a worker that has caught up with the producer parks
// until the next push wakes it. A Feed may be filled before Stream (all
// of a slice's items, say) and is reusable: Clear drops its items and
// keeps their storage. Its zero value is an empty feed.
type Feed[T any] struct {
	items []T // the producer's: every item pushed so far
	// view is what workers read item i from: items' backing array, read up
	// to its capacity. base boxes the array a call starts with; a push
	// that outgrows it boxes the new one, so a worker never reads a slice
	// header the producer is writing.
	view   atomic.Pointer[[]T]
	base   []T
	pushed atomic.Int64 // items published
	next   atomic.Int64 // items claimed by workers
	parked atomic.Int32 // workers waiting for a push
	closed atomic.Bool  // the producer is done
	mu     sync.Mutex
	wake   sync.Cond // on mu: a push or the close

	// The running Stream call's, for the worker a push starts beside the
	// producer.
	ctx     context.Context
	consume func(w, i int, item T)
	helper  *Group
}

// Test seams into every Stream call, set only while no call runs: unset,
// each costs a nil check.
var (
	// OnHelper is called as a call starts the worker beside its producer.
	OnHelper func()
	// OnItem is called with +1 as a worker begins an item and −1 as it
	// ends one.
	OnItem func(delta int)
)

// FeedOf returns a feed holding items, as if each had been pushed. Of
// its methods only Clear writes the slice.
func FeedOf[T any](items []T) *Feed[T] { return &Feed[T]{items: items} }

// Len returns the number of items the feed holds: those it was filled
// with and those pushed since. Only the producer may call it.
func (f *Feed[T]) Len() int { return len(f.items) }

// Push publishes item as the next one. Only the goroutine running the
// Stream call's produce may push, and only while it runs. The first push
// that leaves the feed holding two items starts a worker beside the
// producer.
//
//ceres:allocfree
func (f *Feed[T]) Push(item T) {
	if len(f.items) == cap(f.items) {
		f.grow()
	}
	f.items = append(f.items, item)
	if f.pushed.Add(1) >= 2 && f.helper == nil && f.consume != nil {
		f.startHelper()
	}
	f.wakeParked()
}

// wakeParked wakes the workers parked for a push, if any are. A worker
// raises parked before its last look at pushed and closed, so a push or
// close it missed sees it parked.
//
//ceres:allocfree
func (f *Feed[T]) wakeParked() {
	if f.parked.Load() > 0 {
		f.mu.Lock()
		f.wake.Broadcast()
		f.mu.Unlock()
	}
}

// grow moves items to an array twice the size and publishes it to the
// workers before any item is written there.
func (f *Feed[T]) grow() {
	items := make([]T, len(f.items), max(2*cap(f.items), 8))
	copy(items, f.items)
	f.items = items
	f.view.Store(&items)
}

func (f *Feed[T]) startHelper() {
	if OnHelper != nil {
		OnHelper()
	}
	f.helper = Go(f.ctx, 1, func(ctx context.Context, _ int) { f.drain(ctx, 0) })
}

// Clear zeroes the feed's items and empties it, keeping their storage
// for the next call. The feed must not be in a Stream call.
func (f *Feed[T]) Clear() {
	clear(f.items)
	f.items = f.items[:0]
	f.base = nil
	f.view.Store(nil)
}

// drain runs the feed's consume as worker w until the items run out or
// ctx is done.
func (f *Feed[T]) drain(ctx context.Context, w int) {
	for ctx.Err() == nil {
		i := f.next.Add(1) - 1
		for i >= f.pushed.Load() {
			if f.closed.Load() {
				if i >= f.pushed.Load() {
					return
				}
				break
			}
			f.park(i)
		}
		s := *f.view.Load()
		if OnItem != nil {
			OnItem(1)
		}
		f.consume(w, int(i), s[:cap(s)][i])
		if OnItem != nil {
			OnItem(-1)
		}
	}
}

// park waits until item i is pushed or the producer is done.
func (f *Feed[T]) park(i int64) {
	f.mu.Lock()
	f.parked.Add(1)
	for i >= f.pushed.Load() && !f.closed.Load() {
		f.wake.Wait()
	}
	f.parked.Add(-1)
	f.mu.Unlock()
}

// Stream runs consume(w, i, item) for every item of f — those it holds
// already and those produce pushes, item i being the i-th — on up to
// workers goroutines, w being the executing worker's index in [0,
// workers), while produce is still producing. produce runs on the
// caller's goroutine and returns the worker bound, which it may only
// learn once its last item is pushed. While it runs, one worker consumes
// beside it, started by the push that leaves f two items; once it
// returns, the caller's goroutine and workers−2 more join that one (at
// one worker the caller waits for it), so no more than workers items are
// consumed at once, and a call that pushes at most one item starts no
// goroutine. Items are handed out in order, as in For; what consume
// writes for item i it must keep per worker, for the number of items is
// only known at the end.
//
// Stream stops handing out items once ctx is done and returns ctx's
// error, but produce always runs to its end. It returns the number of
// items, once every goroutine it started has exited. f must not be in
// another Stream call; Clear it to drop its items.
func Stream[T any](ctx context.Context, f *Feed[T], produce func(*Feed[T]) (workers int), consume func(w, i int, item T)) (int, error) {
	f.base = f.items
	f.view.Store(&f.base)
	f.pushed.Store(int64(len(f.items)))
	f.next.Store(0)
	f.closed.Store(false)
	f.wake.L = &f.mu
	f.ctx, f.consume = ctx, consume
	defer func() { f.ctx, f.consume, f.helper = nil, nil, nil }()

	workers := produce(f)
	f.closed.Store(true)
	f.wakeParked()
	n := len(f.items)
	active, first := min(max(workers, 1), n), 0 // workers to run, the caller's index
	if f.helper != nil {
		first = 1
	}
	var joiners *Group
	if k := active - first - 1; k > 0 {
		joiners = Go(ctx, k, func(ctx context.Context, w int) { f.drain(ctx, first+1+w) })
	}
	if active > first {
		f.drain(ctx, first)
	}
	for _, g := range [...]*Group{joiners, f.helper} {
		if g != nil {
			g.Wait()
		}
	}
	return n, ctx.Err()
}
