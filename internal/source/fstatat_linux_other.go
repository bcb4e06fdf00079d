//go:build linux && !amd64

package source

import "syscall"

// fstatat stats the file at the NUL-terminated path cpath through
// syscall.Stat, which copies the path again; only linux/amd64 calls
// the system call on cpath itself (fstatat_linux_amd64.go).
func fstatat(cpath []byte, st *syscall.Stat_t) error {
	return syscall.Stat(string(cpath[:len(cpath)-1]), st)
}
