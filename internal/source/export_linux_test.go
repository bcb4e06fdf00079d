package source

import (
	"encoding/binary"
	"syscall"
)

// Overflow does to the process's watcher what an overflow of its queue
// does: every event queued so far is lost, and an IN_Q_OVERFLOW record
// is read in their place.
func Overflow() {
	w := sharedWatcher()
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if n, _ := syscall.Read(w.fd, w.buf); n <= 0 {
			break
		}
	}
	var rec [inotifyHeader]byte
	binary.NativeEndian.PutUint32(rec[0:4], ^uint32(0)) // wd -1
	binary.NativeEndian.PutUint32(rec[4:8], syscall.IN_Q_OVERFLOW)
	w.applyLocked(rec[:])
}
