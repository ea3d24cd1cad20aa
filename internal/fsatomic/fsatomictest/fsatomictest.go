// Package fsatomictest drives fsatomic's hook for tests: it records every
// durable-path operation of the process and can "kill" it at the n-th one
// the way a power loss would. It lives outside package fsatomic so that
// no production binary links it.
package fsatomictest

import (
	"errors"
	"os"
	"path/filepath"
	"sync"

	"ceres/internal/fsatomic"
)

// ErrCrashed is what every operation at and after the crash point fails
// with.
var ErrCrashed = errors.New("fsatomictest: process crashed")

// Recorder is an installed hook. Until the crash point it lets every
// operation through and logs it. At the crash point the machine loses
// power: a write lets only its first half through, every rename and link
// whose directory has not been flushed since is undone, and that
// operation and all later ones — the cleanup removes of error paths
// included, so temp files linger as after kill -9 — fail with ErrCrashed.
type Recorder struct {
	restore func()
	crashAt int                    // 0: never
	counts  func(fsatomic.Op) bool // which operations count toward crashAt

	mu      sync.Mutex
	ops     []fsatomic.Op
	counted int
	crashed bool
	pending []undo // renames and links no SyncDir has covered yet
}

// undo restores what a rename or link replaced.
type undo struct {
	name    string
	existed bool
	old     []byte
}

// Start installs a recorder that crashes at the crashAt-th operation
// (counting from 1; 0 never crashes) among those counts accepts — nil
// accepts every one. Stop removes it.
func Start(crashAt int, counts func(fsatomic.Op) bool) *Recorder {
	r := &Recorder{crashAt: crashAt, counts: counts}
	r.restore = fsatomic.SetHook(r.hook)
	return r
}

// Stop puts back the hook that was installed before Start.
func (r *Recorder) Stop() { r.restore() }

func (r *Recorder) hook(op fsatomic.Op) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return 0, ErrCrashed
	}
	r.ops = append(r.ops, op)
	if r.counts == nil || r.counts(op) {
		r.counted++
	}
	if r.counted == r.crashAt && r.crashAt > 0 {
		r.crashed = true
		for i := len(r.pending) - 1; i >= 0; i-- {
			u := r.pending[i]
			if u.existed {
				os.WriteFile(u.name, u.old, 0o644)
			} else {
				os.Remove(u.name)
			}
		}
		return op.Bytes / 2, ErrCrashed
	}
	switch op.Kind {
	case fsatomic.OpRename, fsatomic.OpLink:
		old, err := os.ReadFile(op.To)
		r.pending = append(r.pending, undo{name: op.To, existed: err == nil, old: old})
	case fsatomic.OpSyncDir:
		kept := r.pending[:0]
		for _, u := range r.pending {
			if filepath.Dir(u.name) != filepath.Clean(op.Path) {
				kept = append(kept, u)
			}
		}
		r.pending = kept
	}
	return 0, nil
}

// Ops returns the operations seen so far, the crashing one included.
func (r *Recorder) Ops() []fsatomic.Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]fsatomic.Op(nil), r.ops...)
}

// Crashed reports whether the crash point was reached.
func (r *Recorder) Crashed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crashed
}
