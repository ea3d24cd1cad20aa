// Package fsatomic mimics the blessed implementation package: the
// rename dance itself has to live somewhere, so any package named
// fsatomic is exempt.
package fsatomic

import "os"

func Commit(tmp, final string) error {
	return os.Rename(tmp, final)
}

func WriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func CreateTemp(dir, pattern string) (*os.File, error) {
	return os.CreateTemp(dir, pattern)
}
