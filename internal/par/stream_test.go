package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// watchStream sets the Stream test seams for one test: it counts helper
// starts and records the most items in flight at once.
func watchStream(t *testing.T) (helpers, peak *atomic.Int64) {
	helpers, peak = new(atomic.Int64), new(atomic.Int64)
	var inFlight atomic.Int64
	OnHelper = func() { helpers.Add(1) }
	OnItem = func(delta int) {
		n := inFlight.Add(int64(delta))
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
	}
	t.Cleanup(func() { OnHelper, OnItem = nil, nil })
	return helpers, peak
}

// TestStreamConsumesEveryItem holds Stream to For's result: every item —
// filled before the call, pushed during it, or both — is consumed exactly
// once, under its own index, whatever the worker count produce reports;
// the worker indices stay below it; no more than that many items are in
// flight at once; and exactly the calls that push an item into a feed
// then holding two or more start the helper. The feed is reused across calls, from a small array that
// pushes outgrow while the helper reads it. At GOMAXPROCS 1 and 4.
func TestStreamConsumesEveryItem(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			helpers, peak := watchStream(t)
			f := &Feed[int]{items: make([]int, 0, 1)}
			for _, filled := range []int{0, 1, 5} {
				for _, pushed := range []int{0, 1, 2, 3, 100} {
					for _, workers := range []int{0, 1, 2, 3, 7} {
						helpers.Store(0)
						peak.Store(0)
						for i := 0; i < filled; i++ {
							f.items = append(f.items, 10*i)
						}
						n := filled + pushed
						seen := make([]atomic.Int32, n)
						var badWorker atomic.Int32
						got, err := Stream(context.Background(), f, func(f *Feed[int]) int {
							for i := filled; i < n; i++ {
								f.Push(10 * i)
							}
							return workers
						}, func(w, i int, item int) {
							if w >= max(workers, 1) {
								badWorker.Store(int32(w))
							}
							if item != 10*i {
								t.Errorf("item %d read as %d", i, item)
							}
							seen[i].Add(1)
						})
						f.Clear()
						name := fmt.Sprintf("%d filled, %d pushed, %d workers", filled, pushed, workers)
						if err != nil || got != n {
							t.Fatalf("%s: Stream = %d, %v", name, got, err)
						}
						for i := range seen {
							if c := seen[i].Load(); c != 1 {
								t.Errorf("%s: item %d consumed %d times", name, i, c)
							}
						}
						if w := badWorker.Load(); w != 0 {
							t.Errorf("%s: worker index %d", name, w)
						}
						if p := peak.Load(); p > int64(max(workers, 1)) {
							t.Errorf("%s: %d items in flight at once", name, p)
						}
						want := int64(0)
						if pushed >= 1 && n >= 2 {
							want = 1
						}
						if h := helpers.Load(); h != want {
							t.Errorf("%s: %d helpers started, want %d", name, h, want)
						}
					}
				}
			}
		})
	}
}

// TestStreamOverlaps checks that items are consumed while produce is
// still producing: produce pushes two items and waits for the helper to
// finish the first before it pushes the rest, then reports one worker —
// which the helper, already running, is: the caller's goroutine does not
// join it, so no two items are ever in flight at once.
func TestStreamOverlaps(t *testing.T) {
	helpers, peak := watchStream(t)
	var done atomic.Int64
	f := new(Feed[int])
	n, err := Stream(context.Background(), f, func(f *Feed[int]) int {
		f.Push(0)
		f.Push(1)
		deadline := time.Now().Add(10 * time.Second)
		for done.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no item consumed while produce ran")
			}
			runtime.Gosched()
		}
		for i := 2; i < 50; i++ {
			f.Push(i)
		}
		return 1
	}, func(w, i int, item int) {
		if w != 0 {
			t.Errorf("item %d on worker %d at one worker", i, w)
		}
		done.Add(1)
	})
	if err != nil || n != 50 || done.Load() != 50 || helpers.Load() != 1 || peak.Load() != 1 {
		t.Errorf("Stream = %d, %v: %d consumed, %d helpers, %d in flight at most", n, err, done.Load(), helpers.Load(), peak.Load())
	}
}

// TestStreamParksAndWakes has the helper catch up with a slow producer at
// every item, so it parks each time, and checks each push wakes it: every
// item is consumed, in order, by the helper alone while produce runs.
func TestStreamParksAndWakes(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const n = 40
			var consumed atomic.Int64
			f := new(Feed[int])
			got, err := Stream(context.Background(), f, func(f *Feed[int]) int {
				for i := 0; i < n; i++ {
					f.Push(i)
					// From the second push on the helper runs: wait until it
					// has taken every item so far and parked for the next.
					for i >= 1 && (consumed.Load() < int64(i+1) || f.parked.Load() == 0) {
						runtime.Gosched()
					}
				}
				return 2
			}, func(w, i int, item int) {
				if i >= 1 && w != 0 {
					t.Errorf("item %d consumed by worker %d while produce ran", i, w)
				}
				if int64(i) != consumed.Load() && i >= 1 {
					t.Errorf("item %d consumed after %d items", i, consumed.Load())
				}
				consumed.Add(1)
			})
			if err != nil || got != n || consumed.Load() != n {
				t.Errorf("Stream = %d, %v: %d consumed", got, err, consumed.Load())
			}
		})
	}
}

// TestStreamCancel cancels ctx inside consume: Stream hands out no item
// after that, produce still runs to its end, Stream returns ctx's error
// with the number of items produce pushed, and no goroutine it started
// is left. A ctx cancelled before the call consumes nothing.
func TestStreamCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100
	var consumed atomic.Int64
	var cancelledAt atomic.Int64
	f := new(Feed[int])
	got, err := Stream(ctx, f, func(f *Feed[int]) int {
		for i := 0; i < n; i++ {
			f.Push(i)
		}
		return 3
	}, func(w, i int, item int) {
		if consumed.Add(1) == 10 {
			cancel()
			cancelledAt.Store(consumed.Load())
		}
	})
	waitGoroutines(t, base)
	// Workers already past their ctx check when it was cancelled may each
	// finish one more item.
	if !errors.Is(err, context.Canceled) || got != n || consumed.Load() > cancelledAt.Load()+3 {
		t.Errorf("Stream = %d, %v: %d consumed, cancelled at %d", got, err, consumed.Load(), cancelledAt.Load())
	}
	f.Clear()
	got, err = Stream(ctx, f, func(f *Feed[int]) int {
		for i := 0; i < 5; i++ {
			f.Push(i)
		}
		return 2
	}, func(w, i int, item int) { t.Errorf("item %d consumed under a cancelled ctx", i) })
	waitGoroutines(t, base)
	if !errors.Is(err, context.Canceled) || got != 5 {
		t.Errorf("under a cancelled ctx: Stream = %d, %v", got, err)
	}
}

// TestFeedClearDropsItems checks that Clear keeps a feed's storage and
// drops what its items point at.
func TestFeedClearDropsItems(t *testing.T) {
	f := FeedOf([]*int{new(int), new(int)})
	if _, err := Stream(context.Background(), f, func(*Feed[*int]) int { return 1 }, func(int, int, *int) {}); err != nil {
		t.Fatal(err)
	}
	items := f.items[:2]
	f.Clear()
	if f.Len() != 0 || cap(f.items) != 2 || items[0] != nil || items[1] != nil {
		t.Errorf("cleared feed: len %d cap %d, items %v", f.Len(), cap(f.items), items)
	}
}

// BenchmarkStream measures the handoff: 16 items pushed one by one to
// two workers.
func BenchmarkStream(b *testing.B) {
	ctx := context.Background()
	var sink [16]int
	f := new(Feed[int])
	b.ReportAllocs()
	for b.Loop() {
		Stream(ctx, f, func(f *Feed[int]) int {
			for i := range sink {
				f.Push(i)
			}
			return 2
		}, func(_, i int, item int) { sink[i] += item })
		f.Clear()
	}
}
