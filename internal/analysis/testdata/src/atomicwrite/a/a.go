// Package a seeds atomicwrite violations: every raw publication call and
// every production use of the fault seam must be flagged, while the
// blessed fsatomic path, test files and correctly scoped ignores stay
// silent.
package a

import (
	"io/ioutil"
	"os"
	"path/filepath"

	"ceres/internal/fsatomic"
)

func rawCreate(dir string) error {
	f, err := os.Create(filepath.Join(dir, "out.json")) // want "raw os.Create"
	if err != nil {
		return err
	}
	return f.Close()
}

func rawWrite(dir string) error {
	return os.WriteFile(filepath.Join(dir, "x"), nil, 0o644) // want "raw os.WriteFile"
}

func rawRename(dir string) error {
	return os.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")) // want "raw os.Rename"
}

func legacyWrite(path string) error {
	return ioutil.WriteFile(path, nil, 0o644) // want "raw ioutil.WriteFile"
}

// rawTemp bypasses the seam: the temp file's create and writes would be
// invisible to the crash-point tests.
func rawTemp(dir string) error {
	f, err := os.CreateTemp(dir, ".x-*") // want "raw os.CreateTemp"
	if err != nil {
		return err
	}
	return f.Close()
}

func rawLink(dir string) error {
	return os.Link(filepath.Join(dir, "a"), filepath.Join(dir, "b")) // want "raw os.Link"
}

// streamOK uses the blessed stream-then-commit entry points.
func streamOK(dir string) error {
	f, err := fsatomic.CreateTemp(dir, ".x-*")
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("x")); err != nil {
		f.Abort()
		return err
	}
	if err := f.Commit(filepath.Join(dir, "x")); err != nil {
		return err
	}
	return fsatomic.SyncDir(dir)
}

// hooked installs the fault seam from production code.
func hooked() {
	restore := fsatomic.SetHook(nil) // want "fsatomic.SetHook outside a test"
	restore()
}

func ignoredTrailing(dir string) error {
	f, err := os.Create(dir + "/scratch") //ceresvet:ignore atomicwrite scratch file never published to readers
	if err != nil {
		return err
	}
	return f.Close()
}

func ignoredStandalone(dir string) error {
	//ceresvet:ignore atomicwrite scratch file never published to readers
	return os.WriteFile(dir+"/scratch", nil, 0o644)
}

func wrongAnalyzerIgnored(dir string) error {
	//ceresvet:ignore ctxflow an ignore for another analyzer does not suppress this one
	return os.Rename(dir+"/a", dir+"/b") // want "raw os.Rename"
}

// shadowed proves resolution is type-based: a local named os is not the
// os package.
func shadowed() {
	os := fakeOS{}
	os.Create("x")
}

type fakeOS struct{}

func (fakeOS) Create(string) {}
