//go:build !linux

package fsatomic

import "os"

// startWriteback does nothing where sync_file_range(2) does not exist:
// Seal's fsync writes the whole file.
func startWriteback(*os.File) {}
