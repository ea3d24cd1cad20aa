package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForMatchesSerial(t *testing.T) {
	n := 100
	serial := make([]int, n)
	parallel := make([]int, n)
	for i := 0; i < n; i++ {
		serial[i] = i * i
	}
	if err := For(context.Background(), n, 7, func(_, i int) { parallel[i] = i * i }); err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("For diverged at %d", i)
		}
	}
	// Degenerate worker counts.
	For(context.Background(), 3, 0, func(_, i int) {})
	For(context.Background(), 0, 5, func(_, i int) { t.Fatal("should not run") })
}

// batch is the test's Ordered batch: the item it was loaded with.
type batch struct{ item int }

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestOrderedBound holds Ordered to its memory bound at one loader per
// core: loader w loads the items i ≡ w (mod loaders) into two batches of
// its own, so it starts item i only once item i-2·loaders has been
// consumed and never has more than two of its items loaded and not yet
// consumed — checked at every load while a slow consumer gives the
// loaders every chance to run ahead. At GOMAXPROCS 1 and 4.
func TestOrderedBound(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			loaders := runtime.GOMAXPROCS(0)
			const n = 40
			var consumed atomic.Int64        // items whose consume has returned
			var started, loaded atomic.Int64 // loads begun, loads finished
			var order []int
			batches := map[*batch]bool{}
			err := Ordered(context.Background(), n, loaders,
				func(w, i int, b *batch) {
					started.Add(1)
					if i%loaders != w {
						t.Errorf("loader %d given item %d", w, i)
					}
					live := 0 // this loader's items loaded and not yet consumed, this one included
					for j := int(consumed.Load()); j <= i; j++ {
						if j%loaders == w {
							live++
						}
					}
					if live > 2 {
						t.Errorf("loader %d started item %d with %d of its items loaded and not yet consumed", w, i, live-1)
					}
					b.item = i
					loaded.Add(1)
				},
				func(i int, b *batch) error {
					batches[b] = true
					if b.item != i {
						t.Errorf("consume(%d) got the batch of item %d", i, b.item)
					}
					order = append(order, i)
					// Hold this item until every item the loaders may load
					// meanwhile — up to i+loaders — is loaded (they then have
					// nothing left they may do), and a little longer.
					reach := int64(min(n, i+loaders+1))
					for loaded.Load() < reach {
						runtime.Gosched()
					}
					for k := 0; k < 50; k++ {
						runtime.Gosched()
					}
					if got := started.Load(); got > reach {
						t.Errorf("%d loads started while item %d was being consumed", got, i)
					}
					consumed.Add(1)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("consumed in order %v", order)
				}
			}
			if len(order) != n || len(batches) != 2*loaders {
				t.Errorf("consumed %d items through %d batches, want %d through %d", len(order), len(batches), n, 2*loaders)
			}
		})
	}
}

// TestOrderedErrorWaitsItsTurn holds Ordered to its order when a later
// item fails while an earlier one is being consumed: the load of item bad
// fails exactly while item bad-1 is being consumed, and consume sees every
// item before it, then the error; every loader has exited when Ordered
// returns. At GOMAXPROCS 1 and 4.
func TestOrderedErrorWaitsItsTurn(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			const n, bad = 12, 6
			errBad := fmt.Errorf("item %d refused", bad)
			type result struct{ err error }
			consuming, failed := make(chan struct{}), make(chan struct{})
			var consumed []int
			err := Ordered(context.Background(), n, runtime.GOMAXPROCS(0),
				func(w, i int, b *result) {
					b.err = nil
					if i == bad {
						<-consuming
						b.err = errBad
						close(failed)
					}
				},
				func(i int, b *result) error {
					if b.err != nil {
						return b.err
					}
					if i == bad-1 {
						close(consuming)
						<-failed
					}
					consumed = append(consumed, i)
					return nil
				})
			waitGoroutines(t, base)
			if !errors.Is(err, errBad) || !slices.Equal(consumed, []int{0, 1, 2, 3, 4, 5}) {
				t.Fatalf("Ordered consumed %v, returned %v", consumed, err)
			}
		})
	}
}

// TestOrderedStops covers Ordered's early exits at every item of a run: a
// consume error and a ctx cancelled inside consume each end the run after
// exactly that item, with that error (none when the cancelled item was the
// last), and every loader has exited
// when Ordered returns — also with a ctx cancelled before it starts, when
// nothing is loaded or consumed. At GOMAXPROCS 1 and 4.
func TestOrderedStops(t *testing.T) {
	errStop := errors.New("stop here")
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			const n = 10
			for _, cancelled := range []bool{false, true} {
				for k := 0; k < n; k++ {
					ctx, cancel := context.WithCancel(context.Background())
					var consumed []int
					err := Ordered(ctx, n, runtime.GOMAXPROCS(0),
						func(w, i int, b *batch) { b.item = i },
						func(i int, b *batch) error {
							consumed = append(consumed, b.item)
							if i < k {
								return nil
							}
							if cancelled {
								cancel()
								return nil
							}
							return errStop
						})
					cancel()
					waitGoroutines(t, base)
					want, wantErr := k+1, errStop
					switch {
					case cancelled && k == n-1: // nothing was left to skip
						wantErr = nil
					case cancelled:
						wantErr = context.Canceled
					}
					if !errors.Is(err, wantErr) || len(consumed) != want || !slices.Equal(consumed, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}[:want]) {
						t.Errorf("cancelled=%v, stop at %d: consumed %v, returned %v", cancelled, k, consumed, err)
					}
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			for _, n := range []int{0, 1, n} {
				err := Ordered(ctx, n, runtime.GOMAXPROCS(0),
					func(w, i int, b *batch) { t.Errorf("loaded item %d under a cancelled ctx", i) },
					func(i int, b *batch) error { t.Errorf("consumed item %d under a cancelled ctx", i); return nil })
				if !errors.Is(err, context.Canceled) {
					t.Errorf("n=%d under a cancelled ctx: returned %v", n, err)
				}
			}
			waitGoroutines(t, base)
		})
	}
}

// TestOrderedSingleItemInline checks that one item starts no goroutine:
// load and consume both run on the caller's.
func TestOrderedSingleItemInline(t *testing.T) {
	base := runtime.NumGoroutine()
	var during int
	err := Ordered(context.Background(), 1, 4,
		func(w, i int, b *batch) { b.item, during = i+1, runtime.NumGoroutine() },
		func(i int, b *batch) error {
			if b.item != 1 {
				t.Errorf("consume got item %d", b.item-1)
			}
			return nil
		})
	if err != nil || during > base {
		t.Errorf("single item: %d goroutines while loading, %d before, error %v", during, base, err)
	}
}

// TestGo holds Go to its contract: each w in [0, n) runs exactly once,
// Wait returns only after every fn has returned — the fns are released
// only once all have started, so a Wait that returned early would see
// none returned — and the goroutines are gone afterwards; also under a
// ctx cancelled before Go is called, which still starts every fn. At
// GOMAXPROCS 1 and 4.
func TestGo(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			for _, ctx := range []context.Context{context.Background(), cancelled} {
				const n = 8
				var runs [n]atomic.Int32
				var returned atomic.Int32
				var started sync.WaitGroup
				started.Add(n)
				release := make(chan struct{})
				g := Go(ctx, n, func(got context.Context, w int) {
					if got != ctx {
						t.Errorf("fn %d got another context", w)
					}
					runs[w].Add(1)
					started.Done()
					<-release
					returned.Add(1)
				})
				go func() {
					started.Wait()
					close(release)
				}()
				g.Wait()
				if got := returned.Load(); got != n {
					t.Errorf("Wait returned after %d of %d fns", got, n)
				}
				for w := range runs {
					if got := runs[w].Load(); got != 1 {
						t.Errorf("w=%d ran %d times", w, got)
					}
				}
			}
			waitGoroutines(t, base)
		})
	}
}

// BenchmarkFor measures For's fan-out path: 16 items on 4 workers.
func BenchmarkFor(b *testing.B) {
	ctx := context.Background()
	var sink [16]int
	b.ReportAllocs()
	for b.Loop() {
		For(ctx, len(sink), 4, func(_, i int) { sink[i]++ })
	}
}
