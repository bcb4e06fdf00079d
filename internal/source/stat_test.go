package source_test

// stat_test is the differential oracle of the stat check: whatever mix
// of edits lands between loads, every loaded File holds exactly what
// os.ReadFile returns for its path, and every snapshot lists exactly
// the directory's source files. It runs each edit sequence twice: on
// the real clock, where the files it just wrote are too recent to be
// trusted, and with the trust window passed, where every settled file
// is served from its stat record until an edit changes its identity.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wasabi/internal/obs"
	"wasabi/internal/source"
)

// settle waits until the file system stamps a write with a later time
// than any write made before the call, so the next write's ctime
// differs from every ctime already on disk.
func settle(t *testing.T, probeDir string) {
	t.Helper()
	probe := filepath.Join(probeDir, "probe")
	stamp := func() time.Time {
		if err := os.WriteFile(probe, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(probe)
		if err != nil {
			t.Fatal(err)
		}
		return info.ModTime()
	}
	first := stamp()
	for deadline := time.Now().Add(5 * time.Second); !stamp().After(first); {
		if time.Now().After(deadline) {
			t.Fatal("file system timestamps did not advance in 5s")
		}
	}
}

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
	// Each edit leaves a.go, b.go and c.go's sizes alone unless it says
	// otherwise, so only the bytes (and the stat identity) tell.
	edits := []struct {
		name string
		edit func(t *testing.T, dir string, load func())
	}{
		{"none", func(*testing.T, string, func()) {}},
		{"same-size rewrite", func(t *testing.T, dir string, _ func()) {
			write(t, filepath.Join(dir, "a.go"), "package demo\n\nvar A = \"a2\"\n")
		}},
		{"same-size rewrite, mtime restored", func(t *testing.T, dir string, _ func()) {
			path := filepath.Join(dir, "b.go")
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			write(t, path, "package demo\n\nvar B = \"b2\"\n")
			if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
				t.Fatal(err)
			}
		}},
		{"second write right after a load", func(t *testing.T, dir string, load func()) {
			path := filepath.Join(dir, "a.go")
			write(t, path, "package demo\n\nvar A = \"a3\"\n")
			load()
			write(t, path, "package demo\n\nvar A = \"a4\"\n")
		}},
		{"rename over", func(t *testing.T, dir string, _ func()) {
			tmp := filepath.Join(dir, "c.go.tmp")
			write(t, tmp, "package demo\n\nvar C = \"c2\"\n")
			if err := os.Rename(tmp, filepath.Join(dir, "c.go")); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete", func(t *testing.T, dir string, _ func()) {
			if err := os.Remove(filepath.Join(dir, "b.go")); err != nil {
				t.Fatal(err)
			}
		}},
		{"create", func(t *testing.T, dir string, _ func()) {
			write(t, filepath.Join(dir, "d.go"), "package demo\n\nvar D = \"d1\"\n")
		}},
		{"truncate", func(t *testing.T, dir string, _ func()) {
			if err := os.Truncate(filepath.Join(dir, "a.go"), int64(len("package demo\n"))); err != nil {
				t.Fatal(err)
			}
		}},
		{"none again", func(*testing.T, string, func()) {}},
	}
	for _, passed := range []bool{false, true} {
		name := "real clock"
		if passed {
			name = "window passed"
		}
		t.Run(name, func(t *testing.T) {
			created := time.Now()
			dir := writeDir(t, map[string]string{
				"a.go":      "package demo\n\nvar A = \"a1\"\n",
				"b.go":      "package demo\n\nvar B = \"b1\"\n",
				"c.go":      "package demo\n\nvar C = \"c1\"\n",
				"notes.txt": "not source",
			})
			probeDir := t.TempDir()
			observer := obs.New()
			st := source.NewStore(observer.Reg())
			if passed {
				source.PassWindow(st)
			}
			var served, last int64
			load := func() {
				t.Helper()
				if passed {
					settle(t, probeDir)
				}
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
				last = int64(len(snap.Files))
				served += last
				s := observer.Reg().Snapshot()
				if got := s.Counter("source_files_loaded_total") + s.Counter("source_stat_reuse_total"); got != served {
					t.Fatalf("loaded + stat reuse = %d, want the %d files served", got, served)
				}
			}
			load()
			for _, e := range edits {
				before := observer.Reg().Snapshot()
				e.edit(t, dir, load)
				load()
				after := observer.Reg().Snapshot()
				read := after.Counter("source_files_loaded_total") - before.Counter("source_files_loaded_total")
				switch {
				case !strings.HasPrefix(e.name, "none"):
				case passed && read != 0:
					t.Fatalf("%s: read %d files with the window passed, want every file from its stat record", e.name, read)
				case !passed && time.Since(created) < time.Second/2 && read != last:
					// Files written within the window are never trusted,
					// so each load reads them all again.
					t.Fatalf("%s: read %d files written %v ago, want all %d", e.name, read, time.Since(created), last)
				}
			}
		})
	}
}

// TestStatCheckConcurrent loads one directory from several goroutines
// with the trust window passed while another renames same-size versions
// over one of its files: every load must return a version that was
// written, and once the writer stops, a load returns the last one.
func TestStatCheckConcurrent(t *testing.T) {
	version := func(i int) string { return fmt.Sprintf("package demo\n\nvar V = %03d\n", i) }
	dir := writeDir(t, map[string]string{"v.go": version(0), "w.go": "package demo\n"})
	probeDir := t.TempDir()
	settle(t, probeDir)
	st := source.NewStore(obs.New().Reg())
	source.PassWindow(st)
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
	settle(t, probeDir)
	snap, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(snap.Files[0].Bytes); got != version(versions-1) {
		t.Fatalf("after the writer stopped, v.go loads as %q, want %q", got, version(versions-1))
	}
}

// TestWarmStatAllocs: on Linux a warm load stats each record's kept
// NUL-terminated path and, finding every file as the directory's last
// snapshot holds it, returns that snapshot: it allocates nothing.
func TestWarmStatAllocs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("only Linux reports a stat identity")
	}
	files := map[string]string{}
	for i := 0; i < 12; i++ {
		files[fmt.Sprintf("f%02d.go", i)] = fmt.Sprintf("package demo // %d\n", i)
	}
	dir := writeDir(t, files)
	reg := obs.NewRegistry()
	st := source.NewStore(reg)
	source.PassWindow(st)
	first, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
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
func TestSnapshotReusedUntilChanged(t *testing.T) {
	for _, trust := range []bool{false, true} {
		t.Run(fmt.Sprintf("trusted=%v", trust), func(t *testing.T) {
			dir := writeDir(t, map[string]string{"a.go": "package demo\n", "b.go": "package demo // b\n", "c.go": "package demo // c\n"})
			st := source.NewStore(nil)
			if trust {
				source.PassWindow(st)
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
				settle(t, t.TempDir())
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				settle(t, t.TempDir())
			}
			first := load()
			if again := load(); trust != (again == first) {
				t.Fatalf("unchanged directory: same snapshot = %v, want %v (only a trusted listing keeps one)", again == first, trust)
			}
			write("b.go", "package demo // b edited\n")
			edited := load()
			if edited == first || edited.Files[0] != first.Files[0] || edited.Files[1] == first.Files[1] || edited.Files[2] != first.Files[2] {
				t.Fatal("after editing b.go: want a new snapshot sharing a.go and c.go")
			}
			if again := load(); trust != (again == edited) {
				t.Fatalf("after the edit: same snapshot = %v, want %v", again == edited, trust)
			}
			write("d.go", "package demo // d\n")
			added := load()
			if added == edited || len(added.Files) != 4 || added.Files[3].Name != "d.go" {
				t.Fatalf("after adding d.go: got %v", added.Names())
			}
			if err := os.Remove(filepath.Join(dir, "a.go")); err != nil {
				t.Fatal(err)
			}
			settle(t, t.TempDir())
			if removed := load(); removed == added || !slices.Equal(removed.Names(), []string{"b.go", "c.go", "d.go"}) {
				t.Fatalf("after removing a.go: got %v", removed.Names())
			}
		})
	}
}
