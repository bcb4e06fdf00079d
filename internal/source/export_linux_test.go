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

// SelfEvent applies to the watch of dir, one st has loaded and watches,
// a record with mask and no name, as the kernel reports the directory
// itself deleted, moved, no longer watched or unmounted. It reports
// whether st held a watch on dir.
func SelfEvent(st *Store, dir string, mask uint32) bool {
	st.mu.Lock()
	d := st.dirs[dir].watch
	st.mu.Unlock()
	if d == nil {
		return false
	}
	w := sharedWatcher()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.watches[d.wd] != d {
		return false
	}
	var rec [inotifyHeader]byte
	binary.NativeEndian.PutUint32(rec[0:4], uint32(d.wd))
	binary.NativeEndian.PutUint32(rec[4:8], mask)
	w.applyLocked(rec[:])
	return true
}
