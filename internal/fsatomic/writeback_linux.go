package fsatomic

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writing the dirty
// pages of the range out, and do not wait for them.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to start writing f's dirty pages to disk
// (sync_file_range(2)) and returns at once. It is a hint: what it fails to
// start, Seal's fsync writes, and reports.
func startWriteback(f *os.File) {
	if rc, err := f.SyscallConn(); err == nil {
		rc.Control(func(fd uintptr) { syscall.SyncFileRange(int(fd), 0, 0, syncFileRangeWrite) })
	}
}
