package source

// inotify_test pins the decoder of inotify's variable-length records
// (nextEvent) against a reference encoder written from the record
// layout: whatever bytes a read returns, decoding never panics, stops at
// the first record that is not whole, and decodes what it re-encodes to
// the same events.

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// appendEvent appends ev as the kernel writes it: the header, then the
// name padded with NULs to a multiple of the header size, with at least
// one NUL; an event without a name has no name bytes at all.
func appendEvent(b []byte, ev inotifyEvent) []byte {
	n := 0
	if len(ev.name) > 0 {
		n = (len(ev.name)/inotifyHeader + 1) * inotifyHeader
	}
	var h [inotifyHeader]byte
	binary.NativeEndian.PutUint32(h[0:4], uint32(ev.wd))
	binary.NativeEndian.PutUint32(h[4:8], ev.mask)
	binary.NativeEndian.PutUint32(h[8:12], ev.cookie)
	binary.NativeEndian.PutUint32(h[12:16], uint32(n))
	b = append(append(b, h[:]...), ev.name...)
	return append(b, make([]byte, n-len(ev.name))...)
}

// decodeAll decodes buf's records up to the first that is not whole and
// returns them with the bytes left.
func decodeAll(buf []byte) ([]inotifyEvent, []byte) {
	var evs []inotifyEvent
	for {
		ev, rest, ok := nextEvent(buf)
		if !ok {
			return evs, buf
		}
		evs = append(evs, ev)
		buf = rest
	}
}

func sameEvents(a, b []inotifyEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].wd != b[i].wd || a[i].mask != b[i].mask || a[i].cookie != b[i].cookie || !bytes.Equal(a[i].name, b[i].name) {
			return false
		}
	}
	return true
}

// sampleEvents covers a named event, the directory's own event, a
// rename pair, names of every padding length around the header size,
// and the queue overflow (wd -1).
func sampleEvents() []inotifyEvent {
	evs := []inotifyEvent{
		{wd: 1, mask: 0x2, name: []byte("a.go")},
		{wd: 1, mask: 0x4},
		{wd: 2, mask: 0x40, cookie: 7, name: []byte("c.go.tmp")},
		{wd: 2, mask: 0x80, cookie: 7, name: []byte("c.go")},
		{wd: -1, mask: 0x4000},
	}
	for _, n := range []int{15, 16, 17, 255} {
		evs = append(evs, inotifyEvent{wd: 3, mask: 0x100, name: bytes.Repeat([]byte("x"), n)})
	}
	return evs
}

func TestInotifyEventsRoundTrip(t *testing.T) {
	evs := sampleEvents()
	var stream []byte
	var ends []int // where each record ends in stream
	for _, ev := range evs {
		stream = appendEvent(stream, ev)
		ends = append(ends, len(stream))
	}
	got, rest := decodeAll(stream)
	if !sameEvents(got, evs) || len(rest) != 0 {
		t.Fatalf("decoded %d events with %d bytes left, want the %d encoded", len(got), len(rest), len(evs))
	}
	// A read cut anywhere decodes exactly the records before the cut.
	for cut := 0; cut < len(stream); cut++ {
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		got, _ := decodeAll(stream[:cut])
		if !sameEvents(got, evs[:whole]) {
			t.Fatalf("cut at %d: decoded %d events, want the %d whole ones", cut, len(got), whole)
		}
	}
}

func FuzzInotifyEvents(f *testing.F) {
	var stream []byte
	for _, ev := range sampleEvents() {
		stream = appendEvent(stream, ev)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3]) // the last record cut short
	f.Add(stream[:10])            // a header cut short
	past := appendEvent(nil, inotifyEvent{wd: 1, mask: 0x2, name: []byte("a.go")})
	binary.NativeEndian.PutUint32(past[12:16], 1<<31) // a len past the buffer
	f.Add(past)
	f.Add(appendEvent(nil, inotifyEvent{wd: -1, mask: 0x4000}))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, rest := decodeAll(data)
		if _, _, ok := nextEvent(rest); ok {
			t.Fatal("decoding stopped before a whole record")
		}
		for _, ev := range evs {
			if bytes.IndexByte(ev.name, 0) >= 0 {
				t.Fatalf("name %q holds a NUL", ev.name)
			}
		}
		var enc []byte
		for _, ev := range evs {
			enc = appendEvent(enc, ev)
		}
		again, tail := decodeAll(enc)
		if len(tail) != 0 || !sameEvents(again, evs) {
			t.Fatalf("re-encoding %d events decodes to %d with %d bytes left", len(evs), len(again), len(tail))
		}
	})
}
