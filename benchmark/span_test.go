package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "root", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Trace: 1, Name: "a", Start: 10, Dur: 30},
		{ID: 3, Parent: 1, Trace: 1, Name: "b", Start: 50, Dur: 20},
		{ID: 4, Parent: 2, Trace: 1, Name: "a.leaf", Start: 15, Dur: 10},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 20, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTimeMergesOverlapAndClips(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Name: "root", Start: 100, Dur: 100},
		// Two children overlapping each other on [120,160).
		{ID: 2, Parent: 1, Trace: 1, Name: "w1", Start: 110, Dur: 50},
		{ID: 3, Parent: 1, Trace: 1, Name: "w2", Start: 120, Dur: 50},
		// A worker-summed total running past the parent's end.
		{ID: 4, Parent: 1, Trace: 1, Name: "sum", Start: 180, Dur: 500},
		// A child wholly outside the parent covers nothing.
		{ID: 5, Parent: 1, Trace: 1, Name: "stray", Start: 0, Dur: 50},
	}
	// Covered: [110,170) and [180,200) = 80.
	if got := selfTimes(spans)[1]; got != 20 {
		t.Errorf("self time = %d, want 20", got)
	}
}

func TestTimedChildrenAreLaidEndToEnd(t *testing.T) {
	log := newSpanLog()
	root := log.open(nil, "run")
	a := log.timed(root, "resolve", 30*time.Millisecond, 0)
	log.timed(a, "train", 20*time.Millisecond, 0)
	log.timed(root, "extract", 50*time.Millisecond, 0)
	log.mu.Lock()
	log.spans[root.id-1].Dur = int64(100 * time.Millisecond)
	log.mu.Unlock()

	spans := log.snapshot()
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if got := byName["extract"].Start - byName["resolve"].Start; got != int64(30*time.Millisecond) {
		t.Errorf("extract starts %d ns after resolve, want 30ms", got)
	}
	if byName["train"].Parent != byName["resolve"].ID || byName["train"].Trace != byName["run"].ID {
		t.Errorf("train: parent %d trace %d", byName["train"].Parent, byName["train"].Trace)
	}
	a2 := aggregate(spans)
	if got := a2["run"].selfDur; got != int64(20*time.Millisecond) {
		t.Errorf("run self = %d, want 20ms", got)
	}
	if got := a2["resolve"].selfDur; got != int64(10*time.Millisecond) {
		t.Errorf("resolve self = %d, want 10ms", got)
	}
}

func TestAdoptKeepsOffsetsAndRenamesByPath(t *testing.T) {
	log := newSpanLog()
	t0 := log.t0.Add(time.Second)
	tree := traceNode{Name: "batch.shard", Start: t0, DurNs: 1000, Children: []traceNode{
		{Name: "resolve", Start: t0.Add(100), DurNs: 400, Children: []traceNode{
			{Name: "train", Start: t0.Add(150), DurNs: 300, Attrs: []traceAttr{{Key: "pages", Num: 60}}, Children: []traceNode{
				{Name: "parse", Start: t0.Add(160), DurNs: 50},
			}},
		}},
		{Name: "extract", Start: t0.Add(600), DurNs: 300, Children: []traceNode{
			// AddTimed children share the parent's start.
			{Name: "parse", Start: t0.Add(600), DurNs: 100},
			{Name: "score", Start: t0.Add(600), DurNs: 150},
		}},
	}}
	log.adopt(nil, tree, batchNames, 0)
	a := aggregate(log.snapshot())
	for name, wantDur := range map[string]int64{
		"batch.shard": 1000, "ceres.Pipeline.Train": 300, "core.train.parse_pages": 50,
		"core.shard.parse": 100, "core.shard.score": 150,
	} {
		if a[name] == nil || a[name].dur != wantDur {
			t.Errorf("%s: %+v, want dur %d", name, a[name], wantDur)
		}
	}
	if a["ceres.Pipeline.Train"].n != 60 {
		t.Errorf("train pages = %v, want 60", a["ceres.Pipeline.Train"].n)
	}
	// parse then score laid end to end inside extract: 300 - 250.
	if got := a["batch.shard.extract"].selfDur; got != 50 {
		t.Errorf("extract self = %d, want 50", got)
	}
	if got := a["batch.shard"].selfDur; got != 300 {
		t.Errorf("shard self = %d, want 300", got)
	}
}
