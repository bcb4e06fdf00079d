//go:build go1.24

package source_test

// release_test pins what a File's version owns: its positions. Each
// interned version parses into a token.FileSet of its own, so once the
// store evicts it and no snapshot holds it, its AST, token.File and line
// table are collected together, and a daemon's heap does not grow with
// every parse. The parse skips object resolution, which no consumer
// reads.

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"weak"

	"wasabi/internal/source"
)

// writeVersion overwrites dir/f.go with version v of a one-function file.
func writeVersion(t *testing.T, dir string, v int) {
	t.Helper()
	body := fmt.Sprintf("package demo\n\nfunc V%d() {}\n", v)
	if err := os.WriteFile(filepath.Join(dir, "f.go"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// parseFirstVersion loads and parses dir's current f.go, checks the
// parse mode, and returns only a weak pointer to the version's
// token.File, so nothing of the version stays reachable from the caller.
func parseFirstVersion(t *testing.T, st *source.Store, dir string) weak.Pointer[token.File] {
	t.Helper()
	snap, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := snap.Files[0]
	syntax, err := f.Syntax()
	if err != nil {
		t.Fatal(err)
	}
	if syntax.Scope != nil {
		t.Error("Syntax resolved objects: want a parse with SkipObjectResolution")
	}
	tf := f.Fset.File(syntax.Pos())
	if tf == nil {
		t.Fatal("parsed file has no token.File in its FileSet")
	}
	return weak.Make(tf)
}

func TestEvictedVersionReleasesPositions(t *testing.T) {
	dir := t.TempDir()
	writeVersion(t, dir, 1)
	st := source.NewStore(nil)
	v1 := parseFirstVersion(t, st, dir)
	for v := 2; v <= source.DefaultKeepGenerations+1; v++ {
		writeVersion(t, dir, v)
		snap, err := st.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snap.Files[0].Syntax(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if v1.Value() != nil {
		t.Fatal("evicted version 1's token.File is still reachable: its positions leak")
	}
	runtime.KeepAlive(st)
}
