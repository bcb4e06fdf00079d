//go:build linux

package source_test

// stat_test is the differential oracle of the store's records: whatever
// mix of edits lands between loads, every loaded File holds exactly what
// os.ReadFile returns for its path, and every snapshot lists exactly the
// directory's source files. It runs each edit sequence twice: on a
// store that watches its directories, which reads exactly the files an
// edit named, and on one that cannot watch them, which reads every file
// on every load.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"

	"wasabi/internal/obs"
	"wasabi/internal/source"
)

// sourceNames lists dir's source files as os.ReadDir sees them.
func sourceNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && source.IsSourceFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	return names
}

func TestStatCheckMatchesDisk(t *testing.T) {
	write := func(t *testing.T, path, body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// version returns a new body for a file; every body has the same
	// size, so only the bytes (and the events) tell versions apart.
	n := 0
	version := func() string {
		n++
		return fmt.Sprintf("package demo\n\nvar V = \"v%03d\"\n", n)
	}
	rename := func(t *testing.T, from, to string) {
		t.Helper()
		if err := os.Rename(from, to); err != nil {
			t.Fatal(err)
		}
	}
	// freshCopy makes dir anew with the files of from, changed rewritten.
	freshCopy := func(t *testing.T, from, dir, changed string) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(from)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(from, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == changed {
				data = []byte(version())
			}
			write(t, filepath.Join(dir, e.Name()), string(data))
		}
	}
	// The loaded directory is base/tree/app; base/other holds the
	// targets of links. reads is how many files the watched store reads
	// in the loads of the edit: exactly the files it named, or, for -1,
	// every file, after an edit that leaves no record current.
	edits := []struct {
		name  string
		reads int
		edit  func(t *testing.T, base, dir string, load func())
	}{
		{"none", 0, func(*testing.T, string, string, func()) {}},
		{"same-size rewrite", 1, func(t *testing.T, _, dir string, _ func()) {
			write(t, filepath.Join(dir, "a.go"), version())
		}},
		{"same-size rewrite, mtime restored", 1, func(t *testing.T, _, dir string, _ func()) {
			path := filepath.Join(dir, "b.go")
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			write(t, path, version())
			if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
				t.Fatal(err)
			}
		}},
		{"second write right after a load", 2, func(t *testing.T, _, dir string, load func()) {
			path := filepath.Join(dir, "a.go")
			write(t, path, version())
			load()
			write(t, path, version())
		}},
		{"rename over", 1, func(t *testing.T, _, dir string, _ func()) {
			tmp := filepath.Join(dir, "c.go.tmp")
			write(t, tmp, version())
			rename(t, tmp, filepath.Join(dir, "c.go"))
		}},
		{"delete", 0, func(t *testing.T, _, dir string, _ func()) {
			if err := os.Remove(filepath.Join(dir, "b.go")); err != nil {
				t.Fatal(err)
			}
		}},
		{"create", 1, func(t *testing.T, _, dir string, _ func()) {
			write(t, filepath.Join(dir, "d.go"), version())
		}},
		{"truncate", 1, func(t *testing.T, _, dir string, _ func()) {
			if err := os.Truncate(filepath.Join(dir, "a.go"), int64(len("package demo\n"))); err != nil {
				t.Fatal(err)
			}
		}},
		// A file linked from another directory is read on every load:
		// a write through that link raises no event here.
		{"hard link from another directory, file rewritten", 1, func(t *testing.T, base, dir string, _ func()) {
			if err := os.Link(filepath.Join(dir, "a.go"), filepath.Join(base, "other", "a.go")); err != nil {
				t.Fatal(err)
			}
			write(t, filepath.Join(dir, "a.go"), version())
		}},
		{"write through the hard link", 1, func(t *testing.T, base, _ string, _ func()) {
			write(t, filepath.Join(base, "other", "a.go"), version())
		}},
		{"hard link removed", 1, func(t *testing.T, base, _ string, _ func()) {
			if err := os.Remove(filepath.Join(base, "other", "a.go")); err != nil {
				t.Fatal(err)
			}
		}},
		{"none after the link", 0, func(*testing.T, string, string, func()) {}},
		// So is a file reached through a symbolic link.
		{"symbolic link to another directory", 1, func(t *testing.T, base, dir string, _ func()) {
			target := filepath.Join(base, "other", "e.go")
			write(t, target, version())
			if err := os.Symlink(target, filepath.Join(dir, "e.go")); err != nil {
				t.Fatal(err)
			}
		}},
		{"write through the link's target", 1, func(t *testing.T, base, _ string, _ func()) {
			write(t, filepath.Join(base, "other", "e.go"), version())
		}},
		{"symbolic link removed", 0, func(t *testing.T, _, dir string, _ func()) {
			if err := os.Remove(filepath.Join(dir, "e.go")); err != nil {
				t.Fatal(err)
			}
		}},
		{"directory renamed, fresh copy at the old path", -1, func(t *testing.T, _, dir string, _ func()) {
			rename(t, dir, dir+".old")
			freshCopy(t, dir+".old", dir, "c.go")
		}},
		// No event reaches the directory's watch: only the stat of its
		// path shows that another directory is there.
		{"parent renamed, fresh copy at the old path", -1, func(t *testing.T, base, dir string, _ func()) {
			tree := filepath.Dir(dir)
			rename(t, tree, tree+".old")
			freshCopy(t, filepath.Join(tree+".old", filepath.Base(dir)), dir, "d.go")
		}},
		{"directory deleted and recreated", -1, func(t *testing.T, _, dir string, _ func()) {
			saved := dir + ".saved"
			freshCopy(t, dir, saved, "")
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			freshCopy(t, saved, dir, "c.go")
		}},
		{"queue overflow", -1, func(t *testing.T, _, dir string, _ func()) {
			write(t, filepath.Join(dir, "a.go"), version())
			source.Overflow()
		}},
		{"none again", 0, func(*testing.T, string, string, func()) {}},
	}
	for _, watched := range []bool{true, false} {
		name := "watched"
		if !watched {
			name = "unwatched"
		}
		t.Run(name, func(t *testing.T) {
			base := t.TempDir()
			dir := filepath.Join(base, "tree", "app")
			for _, d := range []string{dir, filepath.Join(base, "other")} {
				if err := os.MkdirAll(d, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range []string{"a.go", "b.go", "c.go"} {
				write(t, filepath.Join(dir, name), version())
			}
			write(t, filepath.Join(dir, "notes.txt"), "not source")
			observer := obs.New()
			st := source.NewStore(observer.Reg())
			if !watched {
				source.Unwatched(st)
			}
			var served int64
			load := func() {
				t.Helper()
				snap, err := st.Load(dir)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := snap.Names(), sourceNames(t, dir); !slices.Equal(got, want) {
					t.Fatalf("snapshot lists %v, directory holds %v", got, want)
				}
				for _, f := range snap.Files {
					disk, err := os.ReadFile(f.Path)
					if err != nil {
						t.Fatal(err)
					}
					if string(f.Bytes) != string(disk) {
						t.Fatalf("%s: loaded %q, disk holds %q", f.Name, f.Bytes, disk)
					}
				}
				served += int64(len(snap.Files))
				s := observer.Reg().Snapshot()
				if got := s.Counter("source_files_loaded_total") + s.Counter("source_stat_reuse_total"); got != served {
					t.Fatalf("loaded + stat reuse = %d, want the %d files served", got, served)
				}
			}
			// A store watches a directory from its second load on.
			load()
			load()
			for _, e := range edits {
				before, servedBefore := observer.Reg().Snapshot(), served
				e.edit(t, base, dir, load)
				load()
				read := observer.Reg().Snapshot().Counter("source_files_loaded_total") - before.Counter("source_files_loaded_total")
				want := int64(e.reads)
				if !watched || want < 0 {
					want = served - servedBefore
				}
				if read != want {
					t.Fatalf("%s: read %d files, want %d", e.name, read, want)
				}
			}
		})
	}
}

// TestWatchRetiredBySelfEvents: an event that says a watched directory
// itself is deleted, moved, no longer watched or unmounted retires its
// watch, whatever the directory's path leads to afterwards: the next
// load reads every file of the directory and arms it again, so the load
// after that reads none. The events are applied by hand, since a real
// deletion or rename also shows in the stat of the directory's path.
func TestWatchRetiredBySelfEvents(t *testing.T) {
	dir := writeDir(t, map[string]string{"a.go": "package demo\n", "b.go": "package demo // b\n", "c.go": "package demo // c\n"})
	reg := obs.NewRegistry()
	st := source.NewStore(reg)
	// reads loads dir and returns how many files the load read.
	reads := func() int64 {
		t.Helper()
		before := reg.Snapshot().Counter("source_files_loaded_total")
		if _, err := st.Load(dir); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counter("source_files_loaded_total") - before
	}
	// A store watches a directory from its second load on.
	reads()
	reads()
	if n := reads(); n != 0 {
		t.Fatalf("a load of the watched directory read %d files, want 0", n)
	}
	for _, ev := range []struct {
		name string
		mask uint32
	}{
		{"IN_DELETE_SELF", syscall.IN_DELETE_SELF},
		{"IN_MOVE_SELF", syscall.IN_MOVE_SELF},
		{"IN_IGNORED", syscall.IN_IGNORED},
		{"IN_UNMOUNT", syscall.IN_UNMOUNT},
	} {
		if !source.SelfEvent(st, dir, ev.mask) {
			t.Fatalf("%s: the directory has no watch", ev.name)
		}
		if n := reads(); n != 3 {
			t.Fatalf("%s: the next load read %d files, want all 3", ev.name, n)
		}
		if n := reads(); n != 0 {
			t.Fatalf("%s: the load after read %d files, want 0 from the watch armed again", ev.name, n)
		}
	}
}

// TestStatCheckConcurrent loads one directory from several goroutines
// while another renames same-size versions over one of its files: every
// load must return a version that was written, and once the writer
// stops, a load returns the last one.
func TestStatCheckConcurrent(t *testing.T) {
	version := func(i int) string { return fmt.Sprintf("package demo\n\nvar V = %03d\n", i) }
	dir := writeDir(t, map[string]string{"v.go": version(0), "w.go": "package demo\n"})
	st := source.NewStore(obs.New().Reg())
	const versions = 50
	written := map[string]bool{version(0): true}
	for i := 1; i < versions; i++ {
		written[version(i)] = true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := st.Load(dir)
				if err != nil {
					t.Error(err)
					return
				}
				if got := string(snap.Files[0].Bytes); !written[got] {
					t.Errorf("loaded v.go %q, which was never written", got)
					return
				}
			}
		}()
	}
	for i := 1; i < versions; i++ {
		tmp := filepath.Join(dir, "v.tmp")
		if err := os.WriteFile(tmp, []byte(version(i)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, filepath.Join(dir, "v.go")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	snap, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(snap.Files[0].Bytes); got != version(versions-1) {
		t.Fatalf("after the writer stopped, v.go loads as %q, want %q", got, version(versions-1))
	}
}

// TestWarmStatAllocs: a warm load, once the second load has armed the
// directory's watch, drains the watcher's empty queue, stats the
// directory's kept NUL-terminated path and, finding every file's record
// current and as the directory's last snapshot holds it, returns that
// snapshot: it allocates nothing.
func TestWarmStatAllocs(t *testing.T) {
	files := map[string]string{}
	for i := 0; i < 12; i++ {
		files[fmt.Sprintf("f%02d.go", i)] = fmt.Sprintf("package demo // %d\n", i)
	}
	dir := writeDir(t, files)
	reg := obs.NewRegistry()
	st := source.NewStore(reg)
	first, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if armed, err := st.Load(dir); err != nil || armed != first {
		t.Fatalf("second load = %p (err %v), want the first snapshot %p", armed, err, first)
	}
	n := testing.AllocsPerRun(20, func() {
		if snap, err := st.Load(dir); err != nil || snap != first {
			t.Fatalf("warm load = %p (err %v), want the first snapshot %p", snap, err, first)
		}
	})
	if reused := reg.Snapshot().Counter("source_stat_reuse_total"); reused != 21*12 {
		t.Fatalf("stat reuses = %d, want every file of the 21 warm loads (%d)", reused, 21*12)
	}
	if n != 0 {
		t.Fatalf("a warm load of %d files allocates %v objects, want 0", len(files), n)
	}
}

// TestSnapshotReusedUntilChanged: a load returns the directory's last
// snapshot while every file is the version it holds, and a new one
// once a file is edited, added or removed, sharing the unchanged Files.
// A store that keeps no records reads every file again, and still
// returns the last snapshot when it finds the same versions.
func TestSnapshotReusedUntilChanged(t *testing.T) {
	for _, trust := range []bool{false, true} {
		t.Run(fmt.Sprintf("trusted=%v", trust), func(t *testing.T) {
			dir := writeDir(t, map[string]string{"a.go": "package demo\n", "b.go": "package demo // b\n", "c.go": "package demo // c\n"})
			st := source.NewStore(nil)
			if !trust {
				source.Unwatched(st)
			}
			load := func() *source.Snapshot {
				t.Helper()
				snap, err := st.Load(dir)
				if err != nil {
					t.Fatal(err)
				}
				return snap
			}
			write := func(name, body string) {
				t.Helper()
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			first := load()
			if again := load(); again != first {
				t.Fatal("unchanged directory: want the same snapshot")
			}
			write("b.go", "package demo // b edited\n")
			edited := load()
			if edited == first || edited.Files[0] != first.Files[0] || edited.Files[1] == first.Files[1] || edited.Files[2] != first.Files[2] {
				t.Fatal("after editing b.go: want a new snapshot sharing a.go and c.go")
			}
			if again := load(); again != edited {
				t.Fatal("after the edit: want the same snapshot again")
			}
			write("d.go", "package demo // d\n")
			added := load()
			if added == edited || len(added.Files) != 4 || added.Files[3].Name != "d.go" {
				t.Fatalf("after adding d.go: got %v", added.Names())
			}
			if err := os.Remove(filepath.Join(dir, "a.go")); err != nil {
				t.Fatal(err)
			}
			if removed := load(); removed == added || !slices.Equal(removed.Names(), []string{"b.go", "c.go", "d.go"}) {
				t.Fatalf("after removing a.go: got %v", removed.Names())
			}
		})
	}
}
