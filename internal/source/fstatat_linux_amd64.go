package source

import (
	"syscall"
	"unsafe"
)

// fstatat stats the file at the NUL-terminated path cpath relative to
// the working directory, as syscall.Stat does, but without copying the
// path into a fresh NUL-terminated buffer on every call: a warm load
// stats every file of every app, and that copy was most of what it
// allocated.
func fstatat(cpath []byte, st *syscall.Stat_t) error {
	const atFDCWD = ^uintptr(0x63) // AT_FDCWD, -100
	_, _, e := syscall.Syscall6(syscall.SYS_NEWFSTATAT, atFDCWD, uintptr(unsafe.Pointer(&cpath[0])), uintptr(unsafe.Pointer(st)), 0, 0, 0)
	if e != 0 {
		return e
	}
	return nil
}
