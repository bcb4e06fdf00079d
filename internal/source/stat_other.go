//go:build !linux

package source

import "os"

// fileID reports no identity outside Linux, so the store keeps no
// records there and reads every file on every load.
func fileID(*os.File) statID { return statID{} }

// pathID reports no identity outside Linux (fileID).
func pathID(string) statID { return statID{} }
