package source

import (
	"io"
	"os"
	"syscall"
)

// pathID returns what stat reports of the file at the NUL-terminated
// path cpath (cPath), or the zero statID if stat fails.
func pathID(cpath []byte) statID {
	var st syscall.Stat_t
	if fstatat(cpath, &st) != nil {
		return statID{}
	}
	return toStatID(&st)
}

func toStatID(st *syscall.Stat_t) statID {
	return statID{
		dev:   uint64(st.Dev),
		ino:   uint64(st.Ino),
		size:  int64(st.Size),
		nlink: uint64(st.Nlink),
	}
}

// readHandle is a file opened for one read straight through open(2).
// os.Open would register it with the runtime poller: for a regular
// file that is two fcntl calls to set it non-blocking, a failing
// epoll_ctl and two more fcntl calls to clear it again, all for a file
// that is read to the end and closed at once.
type readHandle struct {
	fd   int
	path string
}

// openRead opens path read-only and close-on-exec.
func openRead(path string) (readHandle, error) {
	for {
		fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return readHandle{}, &os.PathError{Op: "open", Path: path, Err: err}
		}
		return readHandle{fd: fd, path: path}, nil
	}
}

// id returns what fstat reports of the open file, or the zero statID if
// fstat fails.
func (h readHandle) id() statID {
	var st syscall.Stat_t
	if syscall.Fstat(h.fd, &st) != nil {
		return statID{}
	}
	return toStatID(&st)
}

// read reads into p as os.File.Read does: io.EOF at the end of the
// file, and an interrupted read retried.
func (h readHandle) read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(h.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, &os.PathError{Op: "read", Path: h.path, Err: err}
		case n == 0 && len(p) > 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (h readHandle) close() error { return syscall.Close(h.fd) }
