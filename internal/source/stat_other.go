//go:build !linux

package source

import "os"

// fileID reports no identity outside Linux, so the store keeps no
// records there and reads every file on every load.
func fileID(*os.File) statID { return statID{} }

// pathID reports no identity outside Linux (fileID).
func pathID([]byte) statID { return statID{} }

// readHandle is a file opened for one read through package os.
type readHandle struct{ f *os.File }

func openRead(path string) (readHandle, error) {
	f, err := os.Open(path)
	return readHandle{f}, err
}

// id reports no identity outside Linux (fileID).
func (h readHandle) id() statID { return statID{} }

func (h readHandle) read(p []byte) (int, error) { return h.f.Read(p) }

func (h readHandle) close() error { return h.f.Close() }
