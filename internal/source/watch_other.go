//go:build !linux

package source

// watcher stands in for the Linux inotify watcher: outside Linux there
// is none, so stores keep no records and read every file on every load.
type watcher struct{}

// dirWatch stands in for a Linux directory watch; none is ever armed.
type dirWatch struct{}

func sharedWatcher() *watcher { return nil }

func (*watcher) drain() uint64                          { return 0 }
func (*watcher) arm(string, []byte) *dirWatch           { return nil }
func (*watcher) disarm(*dirWatch)                       {}
func (*watcher) current(*dirWatch, string, uint64) bool { return false }
func (*dirWatch) holds(statID) bool                     { return false }
