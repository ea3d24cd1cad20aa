package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux the Go toolchain targets.
const clockTick = 100

// procCPU returns the user+system CPU time a live process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat of %d: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat of %d: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat of %d: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSS returns a live process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("proc status of %d: no VmHWM", pid)
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memStats is the slice of runtime.MemStats that
// /debug/pprof/heap?debug=1 prints.
type memStats struct {
	mallocs, totalAlloc uint64
	numGC               uint64
	pauseNs             []uint64 // circular buffer, most recent at (numGC+255)%256
}

func parseMemStats(body []byte) (memStats, error) {
	var m memStats
	seen := 0
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, "# ")
		if !ok {
			continue
		}
		key, val, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		switch key {
		case "Mallocs":
			m.mallocs, _ = strconv.ParseUint(val, 10, 64)
			seen++
		case "TotalAlloc":
			m.totalAlloc, _ = strconv.ParseUint(val, 10, 64)
			seen++
		case "NumGC":
			m.numGC, _ = strconv.ParseUint(val, 10, 64)
			seen++
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				v, _ := strconv.ParseUint(f, 10, 64)
				m.pauseNs = append(m.pauseNs, v)
			}
			seen++
		}
	}
	if seen < 4 {
		return m, fmt.Errorf("heap profile: found %d of 4 MemStats fields", seen)
	}
	return m, nil
}

// pauseSince sums the GC pauses that happened after prev was taken. The
// runtime keeps the last 256 pauses; if more GCs than that ran between
// the two snapshots the older ones are lost and the sum is a floor.
func (m memStats) pauseSince(prev memStats) time.Duration {
	n := len(m.pauseNs)
	if n == 0 {
		return 0
	}
	gcs := m.numGC - prev.numGC
	if gcs > uint64(n) {
		gcs = uint64(n)
	}
	var sum uint64
	for i := uint64(0); i < gcs; i++ {
		sum += m.pauseNs[(m.numGC-1-i)%uint64(n)]
	}
	return time.Duration(sum)
}
