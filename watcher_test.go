package ceres

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestWatcherConvergesOnStore publishes versions into a DirStore and
// checks that Poll hot-swaps the registry to each stored latest —
// including a site the registry has never seen.
func TestWatcherConvergesOnStore(t *testing.T) {
	f := getTrainServeFixture(t)
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	m := NewMetrics()
	var swapLog []string
	w := NewModelWatcher(store, reg, WatcherOptions{
		Interval: time.Minute, // Run is not used; Poll directly
		Metrics:  m,
		OnSwap: func(site string, from, to int) {
			swapLog = append(swapLog, site)
			if to <= from {
				t.Errorf("OnSwap(%s, %d, %d): not an upgrade", site, from, to)
			}
		},
	})
	ctx := context.Background()

	// An empty store converges to nothing.
	if n, err := w.Poll(ctx); n != 0 || err != nil {
		t.Fatalf("empty store Poll = %d, %v", n, err)
	}

	if _, err := store.Publish("demo", f.model); err != nil {
		t.Fatal(err)
	}
	if n, err := w.Poll(ctx); n != 1 || err != nil {
		t.Fatalf("first Poll = %d, %v, want 1 swap", n, err)
	}
	if e, ok := reg.Lookup("demo"); !ok || e.Version != 1 {
		t.Fatalf("after poll: Lookup = %+v, %v, want version 1", e, ok)
	}
	// Converged: another poll swaps nothing.
	if n, err := w.Poll(ctx); n != 0 || err != nil {
		t.Fatalf("steady-state Poll = %d, %v, want 0 swaps", n, err)
	}

	// A new publish rolls the registry forward; the served model is the
	// stored artifact (extraction works through the swapped model).
	if _, err := store.Publish("demo", f.model); err != nil {
		t.Fatal(err)
	}
	if n, err := w.Poll(ctx); n != 1 || err != nil {
		t.Fatalf("rollout Poll = %d, %v, want 1 swap", n, err)
	}
	e, _ := reg.Lookup("demo")
	if e.Version != 2 {
		t.Fatalf("after rollout: version %d, want 2", e.Version)
	}
	if _, err := e.Model.Extract(ctx, f.serve); err != nil {
		t.Fatalf("extracting through watched model: %v", err)
	}
	if len(swapLog) != 2 {
		t.Errorf("OnSwap fired %d times, want 2", len(swapLog))
	}

	// Metrics tell the same story.
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"ceres_watcher_polls_total 4",
		"ceres_watcher_swaps_total 2",
		"ceres_watcher_rollbacks_total 0",
		"ceres_watcher_errors_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// fakeStore scripts List/Open for failure-path tests.
type fakeStore struct {
	entries []StoreEntry
	listErr error
	open    func(site string, version int) (*SiteModel, error)
}

func (s *fakeStore) Publish(string, *SiteModel) (int, error) {
	return 0, errors.New("fakeStore: read-only")
}
func (s *fakeStore) List() ([]StoreEntry, error) { return s.entries, s.listErr }
func (s *fakeStore) Open(site string, version int) (*SiteModel, error) {
	return s.open(site, version)
}
func (s *fakeStore) Latest(site string) (*SiteModel, int, error) {
	return nil, 0, ErrModelNotFound
}
func (s *fakeStore) Untrainable(string, string) (string, bool, error) { return "", false, nil }
func (s *fakeStore) MarkUntrainable(string, string, string) error {
	return errors.New("fakeStore: read-only")
}

// TestWatcherRollback: when the store's latest is below the registry's
// serving version (operator deleted a bad artifact), the watcher
// converges downward and counts a rollback.
func TestWatcherRollback(t *testing.T) {
	f := getTrainServeFixture(t)
	store := &fakeStore{
		entries: []StoreEntry{{Site: "demo", Versions: []int{1}}},
		open: func(site string, version int) (*SiteModel, error) {
			return f.model, nil
		},
	}
	reg := NewRegistry()
	reg.Publish("demo", 5, f.model) // fleet is ahead of the store
	m := NewMetrics()
	w := NewModelWatcher(store, reg, WatcherOptions{Metrics: m})
	if n, err := w.Poll(context.Background()); n != 1 || err != nil {
		t.Fatalf("Poll = %d, %v, want 1 swap", n, err)
	}
	if e, _ := reg.Lookup("demo"); e.Version != 1 {
		t.Fatalf("after rollback: version %d, want 1", e.Version)
	}
	var sb strings.Builder
	m.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "ceres_watcher_rollbacks_total 1") {
		t.Errorf("rollback not counted:\n%s", sb.String())
	}
}

// TestWatcherBackoff: a failing model load is retried only after its
// backoff window, with exponential growth, and a healthy site in the
// same store keeps converging — one bad artifact never blocks the fleet.
func TestWatcherBackoff(t *testing.T) {
	f := getTrainServeFixture(t)
	opens := map[string]int{}
	store := &fakeStore{
		entries: []StoreEntry{
			{Site: "bad", Versions: []int{1}},
			{Site: "good", Versions: []int{1}},
		},
		open: func(site string, version int) (*SiteModel, error) {
			opens[site]++
			if site == "bad" {
				return nil, errors.New("corrupt artifact")
			}
			return f.model, nil
		},
	}
	reg := NewRegistry()
	m := NewMetrics()
	w := NewModelWatcher(store, reg, WatcherOptions{
		Interval: time.Second,
		Backoff:  10 * time.Second,
		Metrics:  m,
	})
	now := time.Unix(1000, 0)
	w.now = func() time.Time { return now }

	ctx := context.Background()
	n, err := w.Poll(ctx)
	if n != 1 || err == nil {
		t.Fatalf("Poll = %d, %v, want 1 swap (good) and the bad site's error", n, err)
	}
	if _, ok := reg.Lookup("good"); !ok {
		t.Fatal("good site did not converge past the bad one")
	}
	if opens["bad"] != 1 {
		t.Fatalf("bad opened %d times, want 1", opens["bad"])
	}

	// Within the backoff window the bad site is not retried.
	now = now.Add(5 * time.Second)
	if _, err := w.Poll(ctx); err != nil {
		t.Fatalf("backed-off Poll returned error: %v", err)
	}
	if opens["bad"] != 1 {
		t.Fatalf("bad retried during backoff (%d opens)", opens["bad"])
	}

	// Past the window it retries; the next window doubles.
	now = now.Add(6 * time.Second) // t+11s > 10s backoff
	w.Poll(ctx)
	if opens["bad"] != 2 {
		t.Fatalf("bad not retried after backoff (%d opens)", opens["bad"])
	}
	now = now.Add(15 * time.Second) // t+26s; second window is 20s from t+11s
	w.Poll(ctx)
	if opens["bad"] != 2 {
		t.Fatalf("bad retried before doubled backoff (%d opens)", opens["bad"])
	}
	now = now.Add(10 * time.Second) // t+36s > t+31s
	w.Poll(ctx)
	if opens["bad"] != 3 {
		t.Fatalf("bad not retried after doubled backoff (%d opens)", opens["bad"])
	}

	// Once the artifact heals, the site converges and its failure state
	// clears.
	store.open = func(site string, version int) (*SiteModel, error) { return f.model, nil }
	now = now.Add(time.Hour)
	if n, err := w.Poll(ctx); n != 1 || err != nil {
		t.Fatalf("healed Poll = %d, %v, want 1 swap", n, err)
	}
	if len(w.fail) != 0 {
		t.Errorf("failure state not cleared: %v", w.fail)
	}
}

// TestWatcherListFailure: a store outage is a counted, retriable error;
// the registry keeps serving what it has.
func TestWatcherListFailure(t *testing.T) {
	f := getTrainServeFixture(t)
	store := &fakeStore{listErr: errors.New("store down")}
	reg := NewRegistry()
	reg.Publish("demo", 3, f.model)
	m := NewMetrics()
	w := NewModelWatcher(store, reg, WatcherOptions{Metrics: m})
	if _, err := w.Poll(context.Background()); err == nil {
		t.Fatal("Poll on a down store returned nil error")
	}
	if e, ok := reg.Lookup("demo"); !ok || e.Version != 3 {
		t.Fatalf("outage disturbed the registry: %+v, %v", e, ok)
	}
	var sb strings.Builder
	m.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "ceres_watcher_errors_total 1") {
		t.Errorf("list failure not counted:\n%s", sb.String())
	}
}

// TestWatcherRun drives the real polling loop: a publish while Run is
// live converges without any call from the test, and cancelling the
// context stops the loop.
func TestWatcherRun(t *testing.T) {
	f := getTrainServeFixture(t)
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	w := NewModelWatcher(store, reg, WatcherOptions{Interval: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	if _, err := store.Publish("demo", f.model); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if e, ok := reg.Lookup("demo"); ok && e.Version == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher Run did not converge within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop after cancel")
	}
}
