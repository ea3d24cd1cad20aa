// Package fsatomic is the one implementation of the write-to-temp,
// fsync, rename publication dance the stores and sinks share: readers
// (and crash-restarts) observe either the previous file or the complete
// new one, never a torn write, and a failed publication leaves no temp
// file behind. A rename is only durable once the directory it happened in
// has been flushed too (SyncDir); WriteFile does that itself, callers of
// Commit do it once per batch of renames.
//
// Every operation that changes what a later process finds on disk —
// temp create, write, fsync, rename, link, remove, directory fsync — is
// announced to an optional Hook first. Production code never installs
// one; tests do, to record the order of a harvest's operations, count
// them, stall one, or fail the n-th and everything after it as a crash
// would (package fsatomictest).
package fsatomic

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// OpKind names one kind of durable-path operation.
type OpKind int

const (
	OpCreate  OpKind = iota // create a temp file; Path is dir/pattern
	OpWrite                 // write Bytes bytes to the temp file Path
	OpSync                  // fsync the temp file Path
	OpRename                // rename Path over To
	OpLink                  // hard-link Path as To (fails when To exists)
	OpRemove                // remove Path
	OpSyncDir               // fsync the directory Path
)

func (k OpKind) String() string {
	return [...]string{"create", "write", "sync", "rename", "link", "remove", "syncdir"}[k]
}

// Op is one operation as the Hook sees it, before it runs.
type Op struct {
	Kind  OpKind
	Path  string
	To    string // OpRename, OpLink: the published name
	Bytes int    // OpWrite
}

// Hook decides the fate of an operation. A nil error lets it run; any
// other error is returned to the caller with the operation not
// performed — except that a failing OpWrite first writes its leading
// keep bytes, the torn write a crash leaves behind.
type Hook func(op Op) (keep int, err error)

var hook atomic.Pointer[Hook]

// SetHook installs h (nil removes it) for every operation of the process
// and returns the function that puts the previous hook back. It is the
// package's test seam: ceresvet rejects calls outside tests.
func SetHook(h Hook) (restore func()) {
	var p *Hook
	if h != nil {
		p = &h
	}
	prev := hook.Swap(p)
	return func() { hook.Store(prev) }
}

func announce(op Op) (keep int, err error) {
	if h := hook.Load(); h != nil {
		return (*h)(op)
	}
	return 0, nil
}

// File is a temp file on its way to publication: created in the
// directory of its final name, written, then exactly one of Commit or
// Abort (Seal + Link + Abort for publication that must not replace).
type File struct {
	f      *os.File
	closed bool
	// unsent counts the bytes written since the kernel was last asked to
	// start writing the file out (writebackBytes).
	unsent int
}

// writebackBytes is how much a File lets gather in the page cache before
// it asks the kernel to start writing it to disk, without waiting: Seal's
// fsync of a large file then waits for what is left. On the benchmark
// crawl's 8.4 MB fused.jsonl, publishing took 10 ms where it took 13.5;
// at the default shard size a shard file (≈ 200 KB), a model and a
// manifest stay below it.
const writebackBytes = 1 << 20

// CreateTemp creates the temp file, named by os.CreateTemp's rules. By
// the repository's convention pattern starts with a dot, so that a temp
// file a killed process left behind is recognisable (RemoveTemps).
func CreateTemp(dir, pattern string) (*File, error) {
	if _, err := announce(Op{Kind: OpCreate, Path: filepath.Join(dir, pattern)}); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// Name returns the temp file's path.
func (t *File) Name() string { return t.f.Name() }

// Write implements io.Writer.
func (t *File) Write(p []byte) (int, error) {
	if keep, err := announce(Op{Kind: OpWrite, Path: t.f.Name(), Bytes: len(p)}); err != nil {
		n, _ := t.f.Write(p[:min(max(keep, 0), len(p))])
		return n, err
	}
	n, err := t.f.Write(p)
	if t.unsent += n; t.unsent >= writebackBytes {
		startWriteback(t.f)
		t.unsent = 0
	}
	return n, err
}

// Seal makes the written bytes durable under the temp name: fsync,
// close, and world-readable mode (CreateTemp files are 0600). The caller
// must have flushed any buffering of its own.
func (t *File) Seal() error {
	if _, err := announce(Op{Kind: OpSync, Path: t.f.Name()}); err != nil {
		return err
	}
	if err := t.f.Sync(); err != nil {
		return err
	}
	t.closed = true
	if err := t.f.Close(); err != nil {
		return err
	}
	return os.Chmod(t.f.Name(), 0o644)
}

// Commit seals the file and renames it over final, which must live in
// the same directory. On any error the temp file is closed and removed,
// so failed publications leave nothing behind. The new name survives a
// power loss only after SyncDir on that directory.
func (t *File) Commit(final string) error {
	err := t.Seal()
	if err == nil {
		if _, err = announce(Op{Kind: OpRename, Path: t.f.Name(), To: final}); err == nil {
			err = os.Rename(t.f.Name(), final)
		}
	}
	if err != nil {
		t.Abort()
	}
	return err
}

// Link publishes a sealed file as final without replacing anything: it
// fails with an os.IsExist error when final exists, and may be tried
// again under another name. The temp name stays until Abort.
func (t *File) Link(final string) error {
	if _, err := announce(Op{Kind: OpLink, Path: t.f.Name(), To: final}); err != nil {
		return err
	}
	return os.Link(t.f.Name(), final)
}

// Abort closes the file if it is still open and removes the temp name.
func (t *File) Abort() error {
	if !t.closed {
		t.closed = true
		t.f.Close()
	}
	return Remove(t.f.Name())
}

// Rename moves oldpath to newpath, in the same file system: a file, or a
// directory set aside whole. Like Commit's rename, it survives a power
// loss only after SyncDir on the directories involved.
func Rename(oldpath, newpath string) error {
	if _, err := announce(Op{Kind: OpRename, Path: oldpath, To: newpath}); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

// Remove deletes a published file, a temp name or an empty directory.
func Remove(name string) error {
	if _, err := announce(Op{Kind: OpRemove, Path: name}); err != nil {
		return err
	}
	return os.Remove(name)
}

// SyncDir flushes a directory, making the renames, links and removals
// that happened in it durable.
func SyncDir(dir string) error {
	if _, err := announce(Op{Kind: OpSyncDir, Path: dir}); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}

// WriteFile atomically and durably replaces path with data: a temp file
// in the same directory, fsync, rename, directory fsync.
func WriteFile(path string, data []byte) error {
	return WriteStream(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteStream is WriteFile for content produced piecemeal: write receives
// the temp file, unbuffered, and whatever it returns as an error abandons
// the publication with nothing left behind.
func WriteStream(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Abort()
		return err
	}
	if err := tmp.Commit(path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// RemoveTemps deletes the regular files of dir whose names start with
// one of the prefixes — the temp files of writers a kill stopped between
// create and rename. Only the one process that owns dir may call it:
// another's live temp file looks the same.
func RemoveTemps(dir string, prefixes ...string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(e.Name(), p) {
				os.Remove(filepath.Join(dir, e.Name()))
				break
			}
		}
	}
}
