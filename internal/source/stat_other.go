//go:build !linux

package source

import "os"

// pathID reports nothing outside Linux, where no watch is armed.
func pathID([]byte) statID { return statID{} }

// readHandle is a file opened for one read through package os.
type readHandle struct{ f *os.File }

func openRead(path string) (readHandle, error) {
	f, err := os.Open(path)
	return readHandle{f}, err
}

// id reports nothing outside Linux: ReadFile reads to the end of the
// file.
func (h readHandle) id() statID { return statID{} }

func (h readHandle) read(p []byte) (int, error) { return h.f.Read(p) }

func (h readHandle) close() error { return h.f.Close() }
