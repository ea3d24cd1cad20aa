// Package a seeds locksafety violations: by-value copies of
// lock-bearing structs in every position (param, receiver, assignment,
// argument, range) and exported methods leaking internal maps.
package a

import (
	"sync"
	"sync/atomic"
)

type Guarded struct {
	mu sync.Mutex
	n  int
}

type Table struct {
	swap  atomic.Int64
	items map[string]int
}

func byValue(g Guarded) int { // want "parameter copies a value containing sync.Mutex"
	return g.n
}

func byPointer(g *Guarded) int { return g.n }

func (g Guarded) ValueRecv() int { // want "receiver copies a value containing sync.Mutex"
	return g.n
}

func (g *Guarded) PtrRecv() int { return g.n }

func assignCopy(g *Guarded) {
	snapshot := *g // want "assignment copies a value containing sync.Mutex"
	_ = snapshot
}

func declCopy(g *Guarded) {
	var snapshot = *g // want "initializer copies a value containing sync.Mutex"
	_ = snapshot
}

func atomicCopy(t *Table) {
	c := t.swap // want "assignment copies a value containing sync/atomic.Int64"
	_ = c
}

// freshInit builds new values in place: nothing is copied.
func freshInit() {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
	g := Guarded{n: 1}
	_ = g
	p := &Guarded{n: 2}
	_ = p
}

func rangeCopy(gs []Guarded) int {
	total := 0
	for _, g := range gs { // want "range copies elements containing sync.Mutex"
		total += g.n
	}
	return total
}

// rangeIndex is the blessed fix: index, then take a pointer.
func rangeIndex(gs []Guarded) int {
	total := 0
	for i := range gs {
		total += gs[i].n
	}
	return total
}

func callCopy(g *Guarded) {
	use(*g) // want "call passes a value containing sync.Mutex"
}

// newLock passes types, not values: new allocates, nothing is copied,
// while a value beside it is still flagged.
func newLock(g *Guarded) {
	mu, p := new(sync.Mutex), new(Guarded)
	_, _ = mu, p
	_ = append([]Guarded(nil), *g) // want "call passes a value containing sync.Mutex"
}

func use(Guarded) {} // want "parameter copies a value containing sync.Mutex"

func usePtr(*Guarded) {}

// Items leaks the internal map.
func (t *Table) Items() map[string]int {
	return t.items // want "returns internal map t.items by reference"
}

// ItemsCopy returns a defensive copy and stays silent.
func (t *Table) ItemsCopy() map[string]int {
	out := make(map[string]int, len(t.items))
	for k, v := range t.items {
		out[k] = v
	}
	return out
}

// items is unexported: package-internal plumbing may share the map.
func (t *Table) items2() map[string]int { return t.items }
