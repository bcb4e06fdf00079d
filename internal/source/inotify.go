package source

import (
	"bytes"
	"encoding/binary"
)

// inotifyEvent is one record of an inotify read: the watch descriptor
// it concerns (-1 for the queue itself), its event mask and rename
// cookie, and the name of the child it concerns, empty for the watched
// directory itself. The name aliases the buffer it was decoded from.
type inotifyEvent struct {
	wd     int32
	mask   uint32
	cookie uint32
	name   []byte
}

// inotifyHeader is the fixed part of a record (struct inotify_event):
// wd, mask, cookie and len, four bytes each in host byte order. len
// bytes of name follow, padded with NULs.
const inotifyHeader = 16

// nextEvent decodes the record at the start of buf and returns it with
// the bytes that follow it. ok is false when buf does not start with a
// whole record: a header cut short, or a name length past the end of
// buf.
func nextEvent(buf []byte) (ev inotifyEvent, rest []byte, ok bool) {
	if len(buf) < inotifyHeader {
		return inotifyEvent{}, buf, false
	}
	n := binary.NativeEndian.Uint32(buf[12:16])
	if uint64(n) > uint64(len(buf)-inotifyHeader) {
		return inotifyEvent{}, buf, false
	}
	end := inotifyHeader + int(n)
	name := buf[inotifyHeader:end]
	if i := bytes.IndexByte(name, 0); i >= 0 {
		name = name[:i]
	}
	return inotifyEvent{
		wd:     int32(binary.NativeEndian.Uint32(buf[0:4])),
		mask:   binary.NativeEndian.Uint32(buf[4:8]),
		cookie: binary.NativeEndian.Uint32(buf[8:12]),
		name:   name,
	}, buf[end:], true
}
