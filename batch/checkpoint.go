package batch

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"ceres/internal/fsatomic"
)

// ErrCheckpointMismatch reports a checkpoint manifest written by a
// different plan — the corpus or shard size changed under a resumed job;
// test with errors.Is. Delete the manifest (and the sink's output) to
// start over.
var ErrCheckpointMismatch = errors.New("batch: checkpoint does not match the job plan")

// manifestFormat versions the checkpoint file.
const manifestFormat = "ceres.batch/1"

// manifest is the on-disk checkpoint: which shards have committed their
// output, which model version serves each site, and which sites were
// skipped (with the reason). It is the resume contract — a run that
// crashes after any atomic manifest write restarts exactly after the last
// shard that write names, every one of which is durably in the sink.
type manifest struct {
	Format     string `json:"format"`
	ShardPages int    `json:"shard_pages"`
	// Sites records each planned site's page count, pinning the plan the
	// checkpoint belongs to.
	Sites map[string]int `json:"sites"`
	// Models records the model version each site's shards were served
	// with, so a resume extracts with the same artifact even if the store
	// has since published newer versions.
	Models map[string]int `json:"models,omitempty"`
	// Skipped records sites that could not be harvested (e.g. training
	// found no seed-KB alignment), by reason; a resume skips them without
	// retraining. (Across -reset passes the ModelStore's verdict does
	// that; this is the record of what the run did.)
	Skipped map[string]string `json:"skipped,omitempty"`
	// Done records committed shard indices per site, sorted.
	Done map[string][]int `json:"done,omitempty"`
}

func newManifest(plan *Plan) *manifest {
	m := &manifest{
		Format:     manifestFormat,
		ShardPages: plan.ShardPages,
		Sites:      map[string]int{},
		Models:     map[string]int{},
		Skipped:    map[string]string{},
		Done:       map[string][]int{},
	}
	for _, sp := range plan.Sites {
		m.Sites[sp.Site] = sp.Pages
	}
	return m
}

// checkpoint wraps a manifest with its path. ck.mu guards the manifest in
// memory and nothing else: every mutation is a map or slice update, and
// the one goroutine that persists (the runner's commit stage) encodes a
// snapshot under the lock and writes it with the lock released, so no
// reader ever waits for I/O. A checkpoint with an empty path is in-memory
// only (checkpointing disabled).
type checkpoint struct {
	path string
	mu   sync.Mutex
	m    *manifest
	// dirty: the manifest in memory has something the file does not.
	dirty bool
	// writes counts the manifest files written (save's caller only).
	writes int
}

// loadCheckpoint opens (or initializes) the manifest at path and verifies
// it matches the plan. Sites new to the plan are added; a site whose page
// count or the shard size changed, or a done list the plan cannot hold,
// fails with ErrCheckpointMismatch.
func loadCheckpoint(path string, plan *Plan) (*checkpoint, error) {
	ck := &checkpoint{path: path, m: newManifest(plan)}
	if path == "" {
		return ck, nil
	}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return ck, nil
	}
	if err != nil {
		return nil, fmt.Errorf("batch: reading checkpoint: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("batch: reading checkpoint %s: %w", path, err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("batch: checkpoint %s has unknown format %q", path, m.Format)
	}
	if m.ShardPages != plan.ShardPages {
		return nil, fmt.Errorf("%w: shard size %d, plan wants %d", ErrCheckpointMismatch, m.ShardPages, plan.ShardPages)
	}
	if m.Sites == nil {
		m.Sites = map[string]int{}
	}
	for _, sp := range plan.Sites {
		if pages, ok := m.Sites[sp.Site]; ok && pages != sp.Pages {
			return nil, fmt.Errorf("%w: site %q has %d pages, checkpoint recorded %d", ErrCheckpointMismatch, sp.Site, sp.Pages, pages)
		}
		m.Sites[sp.Site] = sp.Pages
	}
	if m.Models == nil {
		m.Models = map[string]int{}
	}
	if m.Skipped == nil {
		m.Skipped = map[string]string{}
	}
	if m.Done == nil {
		m.Done = map[string][]int{}
	}
	if err := m.checkDone(); err != nil {
		return nil, fmt.Errorf("batch: checkpoint %s: %w", path, err)
	}
	ck.m = &m
	return ck, nil
}

// checkDone sorts each site's Done list (lookups search it; a hand-edited
// manifest may not be in order) and refuses one the recorded plan cannot
// hold: shards of a site it does not record or records with a negative
// page count, an index outside the site's shards, or a duplicate. Any of
// them would let doneCount reach a site's shard count while a shard of it
// is still undone.
func (m *manifest) checkDone() error {
	for _, site := range slices.Sorted(maps.Keys(m.Done)) {
		done := m.Done[site]
		slices.Sort(done)
		pages, ok := m.Sites[site]
		if !ok || pages < 0 {
			return fmt.Errorf("%w: done shards of site %q, which has no page count", ErrCheckpointMismatch, site)
		}
		shards := (pages + m.ShardPages - 1) / m.ShardPages
		for i, idx := range done {
			if idx < 0 || idx >= shards {
				return fmt.Errorf("%w: site %q has %d shards, checkpoint lists shard %d as done", ErrCheckpointMismatch, site, shards, idx)
			}
			if i > 0 && done[i-1] == idx {
				return fmt.Errorf("%w: site %q lists shard %d as done twice", ErrCheckpointMismatch, site, idx)
			}
		}
	}
	return nil
}

// save writes the manifest as it is now — atomically and durably: temp
// file, fsync, rename, directory fsync — unless the file already says the
// same. It must only ever run on one goroutine at a time; during a Run
// that is the commit stage.
func (ck *checkpoint) save() error {
	ck.mu.Lock()
	if ck.path == "" || !ck.dirty {
		ck.mu.Unlock()
		return nil
	}
	b, err := json.MarshalIndent(ck.m, "", "  ")
	ck.dirty = false
	ck.mu.Unlock()
	if err != nil {
		return fmt.Errorf("batch: writing checkpoint: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(ck.path), 0o755); err != nil {
		return fmt.Errorf("batch: writing checkpoint: %w", err)
	}
	if err := fsatomic.WriteFile(ck.path, append(b, '\n')); err != nil {
		return fmt.Errorf("batch: writing checkpoint: %w", err)
	}
	ck.writes++
	return nil
}

// isDone reports whether a shard's output is already committed.
func (ck *checkpoint) isDone(site string, index int) bool {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	_, found := slices.BinarySearch(ck.m.Done[site], index)
	return found
}

// markDone records committed shards, each at its place in its site's
// sorted list. Like every mutation it touches memory only: the next save
// carries it.
func (ck *checkpoint) markDone(shards ...Shard) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	for _, sh := range shards {
		done := ck.m.Done[sh.Site]
		if i, found := slices.BinarySearch(done, sh.Index); !found {
			ck.m.Done[sh.Site] = slices.Insert(done, i, sh.Index)
			ck.dirty = true
		}
	}
}

// doneCount returns how many of a site's shards have committed.
func (ck *checkpoint) doneCount(site string) int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return len(ck.m.Done[site])
}

// modelVersion returns the pinned model version of a site, if any.
func (ck *checkpoint) modelVersion(site string) (int, bool) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	v, ok := ck.m.Models[site]
	return v, ok
}

// setModelVersion pins the model version serving a site. A site is pinned
// before its first shard is extracted, so the save that records any of
// its shards carries the pin.
func (ck *checkpoint) setModelVersion(site string, v int) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if old, ok := ck.m.Models[site]; !ok || old != v {
		ck.m.Models[site] = v
		ck.dirty = true
	}
}

// skippedSite returns the recorded skip reason of a site, if any.
func (ck *checkpoint) skippedSite(site string) (string, bool) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	r, ok := ck.m.Skipped[site]
	return r, ok
}

// setSkipped records a site as unharvestable.
func (ck *checkpoint) setSkipped(site, reason string) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if old, ok := ck.m.Skipped[site]; !ok || old != reason {
		ck.m.Skipped[site] = reason
		ck.dirty = true
	}
}
