package source

import (
	"os"
	"syscall"
)

// fileID returns the stat identity of the open file f, or the zero
// statID if fstat fails.
func fileID(f *os.File) statID {
	var st syscall.Stat_t
	if syscall.Fstat(int(f.Fd()), &st) != nil {
		return statID{}
	}
	return toStatID(&st)
}

// pathID returns the stat identity of the file at path, or the zero
// statID if stat fails.
func pathID(path string) statID {
	var st syscall.Stat_t
	if syscall.Stat(path, &st) != nil {
		return statID{}
	}
	return toStatID(&st)
}

func toStatID(st *syscall.Stat_t) statID {
	return statID{
		dev:   uint64(st.Dev),
		ino:   uint64(st.Ino),
		size:  int64(st.Size),
		mtime: st.Mtim.Nano(),
		ctime: st.Ctim.Nano(),
	}
}
