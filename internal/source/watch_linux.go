package source

import (
	"math"
	"sync"
	"syscall"
)

// watchMask is what a directory watch reports: a change to a child's
// bytes or attributes, a child created, deleted or renamed, and the
// directory itself deleted or renamed. IN_ONLYDIR refuses anything but
// a directory.
const watchMask = syscall.IN_MODIFY | syscall.IN_ATTRIB | syscall.IN_CLOSE_WRITE |
	syscall.IN_CREATE | syscall.IN_DELETE | syscall.IN_MOVED_FROM | syscall.IN_MOVED_TO |
	syscall.IN_DELETE_SELF | syscall.IN_MOVE_SELF | syscall.IN_ONLYDIR

// maxNames bounds a watch's table of named events: past it, the table
// is cleared and its directory-wide floor raised instead, so a
// directory whose names churn costs bounded memory.
const maxNames = 1024

// gone is the floor of a watch that no longer reports: no record is
// current against it.
const gone = math.MaxUint64

// watcher is the process's one inotify instance. Stores share it, so
// however many stores a process makes, it holds one descriptor.
//
// Every drain that finds events advances seq and stamps what they
// name with it. A record carries the seq of the drain that came before
// its read, and stays current while nothing has been stamped later than
// it: the watch's floor, the named file's stamp, or, for a listing,
// the stamp of the last child created, deleted or renamed. Since the
// kernel queues an event before the write that caused it returns, a
// write that finished before a drain is stamped by it or an earlier
// one, and a write after it is stamped by a later one.
type watcher struct {
	fd int

	mu      sync.Mutex
	seq     uint64
	watches map[int32]*dirWatch // wd → the directory it watches
	buf     []byte
}

// dirWatch is one directory's watch and the stamps of what its events
// named. Its fields are guarded by the watcher's mu.
type dirWatch struct {
	wd       int32
	dev, ino uint64 // the directory the watch was armed on
	floor    uint64 // no record older than this is current
	listing  uint64 // last child created, deleted or renamed
	names    map[string]uint64
}

// holds reports whether id, a fresh stat of the watch's path, is still
// the directory the watch was armed on: a rename of an ancestor, or a
// symbolic link in the path pointed elsewhere, puts another directory
// there, which the watch does not see.
func (d *dirWatch) holds(id statID) bool {
	return id != statID{} && id.dev == d.dev && id.ino == d.ino
}

var shared struct {
	once sync.Once
	w    *watcher
}

// sharedWatcher returns the process's watcher, creating it on first
// use, or nil when inotify is unavailable.
func sharedWatcher() *watcher {
	shared.once.Do(func() {
		fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
		if err != nil {
			return
		}
		shared.w = &watcher{fd: fd, watches: make(map[int32]*dirWatch), buf: make([]byte, 64<<10)}
	})
	return shared.w
}

// drain applies every event queued so far and returns the sequence
// number records made after it carry. In the steady state it is one
// read that finds the queue empty.
func (w *watcher) drain() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		n, err := syscall.Read(w.fd, w.buf)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return w.seq
		case err != nil || n <= 0:
			// The queue cannot be read: nothing it held is known.
			w.seq++
			w.forgetLocked()
			return w.seq
		}
		w.applyLocked(w.buf[:n])
	}
}

// applyLocked stamps the events of one read with a new sequence
// number. w.mu must be held.
func (w *watcher) applyLocked(buf []byte) {
	w.seq++
	for len(buf) > 0 {
		ev, rest, ok := nextEvent(buf)
		if !ok {
			w.forgetLocked()
			return
		}
		buf = rest
		w.eventLocked(ev)
	}
}

// eventLocked applies one event. w.mu must be held.
func (w *watcher) eventLocked(ev inotifyEvent) {
	if ev.mask&syscall.IN_Q_OVERFLOW != 0 {
		w.forgetLocked()
		return
	}
	d := w.watches[ev.wd]
	if d == nil {
		return
	}
	switch {
	case ev.mask&(syscall.IN_DELETE_SELF|syscall.IN_MOVE_SELF|syscall.IN_IGNORED|syscall.IN_UNMOUNT) != 0:
		// Only a moved directory keeps its watch in the kernel.
		w.dropLocked(d, ev.mask&syscall.IN_MOVE_SELF != 0)
	case len(ev.name) == 0:
		d.listing = w.seq
	default:
		if ev.mask&(syscall.IN_CREATE|syscall.IN_DELETE|syscall.IN_MOVED_FROM|syscall.IN_MOVED_TO) != 0 {
			d.listing = w.seq
		}
		if _, ok := d.names[string(ev.name)]; !ok && len(d.names) >= maxNames {
			clear(d.names)
			d.floor = w.seq
			return
		}
		d.names[string(ev.name)] = w.seq
	}
}

// forgetLocked makes no record current and drops every watch, as after
// a queue overflow, when events are lost: the kernel's own removal of a
// watch may be among them, so each directory is armed again on its next
// load. w.mu must be held.
func (w *watcher) forgetLocked() {
	for _, d := range w.watches {
		w.dropLocked(d, false)
	}
}

// dropLocked retires d, removing its kernel watch too when remove is
// set. w.mu must be held.
func (w *watcher) dropLocked(d *dirWatch, remove bool) {
	d.floor = gone
	d.names = nil
	if w.watches[d.wd] == d {
		delete(w.watches, d.wd)
		if remove {
			syscall.InotifyRmWatch(w.fd, uint32(d.wd)) //nolint:errcheck // fails only if the kernel removed it already
		}
	}
}

// disarm retires d, whose path now leads to another directory.
func (w *watcher) disarm(d *dirWatch) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dropLocked(d, true)
}

// arm returns a watch on the directory at dir (cpath is dir
// NUL-terminated), or nil when it cannot be watched: it is gone, its
// file system may change without this kernel seeing it, the watch limit
// is reached, or it changed while the watch was added. The watch is
// bound to the directory's (device, inode): the directory is stat'd
// before and after the watch is added, and both must agree. Arming
// holds mu, so no drain can see the new watch's events before it is
// known.
func (w *watcher) arm(dir string, cpath []byte) *dirWatch {
	w.mu.Lock()
	defer w.mu.Unlock()
	before := pathID(cpath)
	var fs syscall.Statfs_t
	if before == (statID{}) || syscall.Statfs(dir, &fs) != nil || !localFS(int64(fs.Type)) {
		return nil
	}
	wd, err := syscall.InotifyAddWatch(w.fd, dir, watchMask)
	if err != nil {
		return nil
	}
	d := w.watches[int32(wd)]
	if after := pathID(cpath); after.dev != before.dev || after.ino != before.ino {
		if d == nil {
			syscall.InotifyRmWatch(w.fd, uint32(wd)) //nolint:errcheck // fails only if the kernel removed it already
		}
		return nil
	}
	if d != nil && d.holds(before) {
		return d
	}
	if d != nil {
		w.dropLocked(d, false)
	}
	d = &dirWatch{wd: int32(wd), dev: before.dev, ino: before.ino, names: make(map[string]uint64)}
	w.watches[d.wd] = d
	return d
}

// current reports whether a record made after the drain that returned
// seq is still current: for a file named name, or for the listing when
// name is empty.
func (w *watcher) current(d *dirWatch, name string, seq uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if name == "" {
		return d.floor <= seq && d.listing <= seq
	}
	return d.floor <= seq && d.names[name] <= seq
}

// localFS reports whether a file system of the statfs magic is local,
// so that every change to it passes through this kernel and raises its
// events. Network file systems (NFS, CIFS) and FUSE can change without
// that, and get no watch.
func localFS(magic int64) bool {
	switch magic {
	case 0xEF53, // ext2, ext3, ext4
		0x58465342, // xfs
		0x9123683E, // btrfs
		0x01021994, // tmpfs
		0x858458F6, // ramfs
		0x794C7630, // overlayfs
		0xF2F52010, // f2fs
		0x2FC12FC1, // zfs
		0xCA451A4E, // bcachefs
		0x3153464A, // jfs
		0x52654973: // reiserfs
		return true
	}
	return false
}
