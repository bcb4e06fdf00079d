package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicksPerSecond is USER_HZ, the unit of the utime and stime fields
// of /proc/<pid>/stat. Linux fixes it at 100 on every architecture the
// daemon builds for.
const clockTicksPerSecond = 100

// parseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesized and may
// itself contain spaces or parentheses, so fields are counted from the
// last ')'.
func parseStatCPU(data []byte) (int64, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ")" come fields 3 (state) onward; utime and stime are
	// fields 14 and 15.
	fields := strings.Fields(string(data[end+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB returns the value of a "Name:   1234 kB" line from the
// contents of /proc/<pid>/status.
func parseStatusKB(data []byte, name string) (int64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, name+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed line %q", name, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", name)
}

// processCPUms returns a live process's user+system CPU time in ms.
func processCPUms(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(data)
	if err != nil {
		return 0, err
	}
	return float64(ticks) * 1000 / clockTicksPerSecond, nil
}

// processPeakRSSmb returns a live process's peak resident set (VmHWM)
// less its file-backed and shared pages (RssFile, RssShmem), in MiB.
// File-backed pages are mostly the binary's own text, and how many of
// them count as resident depends on the host's page cache rather than
// on the process: they moved a short-lived daemon's VmHWM by a third
// between otherwise identical runs.
func processPeakRSSmb(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	var kb [3]int64
	for i, name := range []string{"VmHWM", "RssFile", "RssShmem"} {
		if kb[i], err = parseStatusKB(data, name); err != nil {
			return 0, err
		}
	}
	return float64(kb[0]-kb[1]-kb[2]) / 1024, nil
}
