package cache

// memo_test.go pins the three memo calls — Analysis, Review and
// Dynamic — each of which owns its stage's key, lineage, store rule and
// record-after-use protocol.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/oracle"
	"wasabi/internal/source"
)

// snapshotOf writes files (name → content) into a fresh directory and
// loads it.
func snapshotOf(t *testing.T, files map[string]string) *source.Snapshot {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := source.NewStore(nil).Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

const goodSrc = "package demo\n\nfunc Run() {}\n"

// dynamicOf is a Dynamic call over the shared fixture inputs.
func dynamicOf(c *Cache, build, suite string, run func() (DynamicRun, error)) (DynamicRun, error) {
	return c.Dynamic(nil, build, suite, "HB", dynLocs, 1, 100, oracle.DefaultOptions(), run)
}

// TestMemoCallsOnNilCache: a nil cache runs every computation and
// counts nothing.
func TestMemoCallsOnNilCache(t *testing.T) {
	var c *Cache
	snap := snapshotOf(t, map[string]string{"a.go": goodSrc})
	if a, err := c.Analysis(snap); err != nil || a.Pkg != "demo" {
		t.Fatalf("Analysis = %+v, %v", a, err)
	}
	calls := 0
	rev, hit := c.Review("cfg", snap.Files[0], func() llm.FileReview { calls++; return review("a.go", 7) })
	if hit || calls != 1 || rev.Spent.TokensIn != 7 {
		t.Fatalf("Review: hit=%v calls=%d review %+v", hit, calls, rev)
	}
	run, err := dynamicOf(c, "build", "seed:HB", func() (DynamicRun, error) { calls++; return dynamicRun(3), nil })
	if err != nil || calls != 2 || run.InjectionRunsFailed != 3 {
		t.Fatalf("Dynamic: calls=%d run %+v err %v", calls, run, err)
	}
	if st := c.Stats(); st.Entries != 0 || len(st.Hits) != 0 || len(st.Misses) != 0 {
		t.Fatalf("nil cache counted: %+v", st)
	}
}

// TestReviewKeyPerFingerprint: the review key a file version keeps is
// the one of the fingerprint asked for, however the fingerprints
// alternate, and a warm hit derives nothing.
func TestReviewKeyPerFingerprint(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := snapshotOf(t, map[string]string{"a.go": goodSrc}).Files[0]
	for i, fp := range []string{"fp1", "fp2", "fp1", "fp1", "fp2"} {
		rev, hit := c.Review(fp, f, func() llm.FileReview { return review(fp, int64(i)) })
		if wantHit := i >= 2; hit != wantHit || rev.File != fp {
			t.Fatalf("call %d (%s): hit=%v review of %q, want hit=%v and the %s review", i, fp, hit, rev.File, wantHit, fp)
		}
		if key := ReviewKey(fp, f.Path, f.SHA256); key != f.KeyThrough(fp, func() string { return "stale" }) {
			t.Fatalf("call %d (%s): the file keeps a key other than ReviewKey", i, fp)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		c.Review("fp1", f, func() llm.FileReview { t.Fatal("a warm review recomputed"); return llm.FileReview{} })
	}); n != 0 {
		t.Fatalf("a warm Review hit allocates %v objects, want 0", n)
	}
}

// TestMemoCallsHitWithoutComputing: a second call with the same inputs
// returns the stored value and never calls the computation.
func TestMemoCallsHitWithoutComputing(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, map[string]string{"a.go": goodSrc})
	first, err := c.Analysis(snap)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := c.Analysis(snap); err != nil || again != first {
		t.Fatalf("second Analysis = %p (err %v), want the stored %p", again, err, first)
	}

	calls := 0
	fresh := review("a.go", 7)
	fresh.Retries, fresh.Backend = 2, "primary"
	compute := func() llm.FileReview { calls++; return fresh }
	if rev, hit := c.Review("cfg", snap.Files[0], compute); hit || rev.Backend != "primary" {
		t.Fatalf("cold Review: hit=%v backend %q, want a miss returning the computed review", hit, rev.Backend)
	}
	rev, hit := c.Review("cfg", snap.Files[0], compute)
	if !hit || calls != 1 || rev.Spent != fresh.Spent || rev.Backend != "" || rev.Retries != 0 {
		t.Fatalf("warm Review: hit=%v calls=%d review %+v, want the stored review without routing facts", hit, calls, rev)
	}

	want := dynamicRun(3)
	runs := 0
	run := func() (DynamicRun, error) { runs++; return want, nil }
	for i := 0; i < 2; i++ {
		if got, err := dynamicOf(c, "build", "seed:HB", run); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Dynamic call %d = %+v, %v", i, got, err)
		}
	}
	if runs != 1 {
		t.Fatalf("Dynamic ran %d times, want 1", runs)
	}
	st := c.Stats()
	for _, stage := range []string{StageAnalysis, StageReview, StageDynamic} {
		if st.Hits[stage] != 1 || st.Misses[stage] != 1 {
			t.Fatalf("%s hits/misses = %d/%d, want 1/1", stage, st.Hits[stage], st.Misses[stage])
		}
	}
	if got := c.UntrackedEntries(); len(got) != 0 {
		t.Fatalf("untracked entries: %v", got)
	}
}

// TestReviewDegradedRecordedNotStored: a degraded review is returned
// and not stored, but its key is recorded, so a third version still
// supersedes the first.
func TestReviewDegradedRecordedNotStored(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	file := func(v int) *source.File {
		return &source.File{Path: "/a/p.go", SHA256: fmt.Sprintf("v%d", v)}
	}
	c.Review("cfg", file(1), func() llm.FileReview { return review("p.go", 1) })
	degraded := llm.FileReview{File: "p.go", Degraded: true, DegradedReason: llm.DegradedOutage}
	rev, hit := c.Review("cfg", file(2), func() llm.FileReview { return degraded })
	if hit || !rev.Degraded {
		t.Fatalf("degraded Review: hit=%v review %+v", hit, rev)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after a degraded review, want only v1's", st.Entries)
	}
	c.Review("cfg", file(3), func() llm.FileReview { return review("p.go", 3) })
	if got := reg.Snapshot().Counter("cache_superseded_total"); got != 1 {
		t.Fatalf("cache_superseded_total = %d, want 1: v3 supersedes v1", got)
	}
	if _, ok := c.GetReview(ReviewKey("cfg", "/a/p.go", "v1")); ok {
		t.Fatal("v1 outlived two newer versions")
	}
}

// TestAnalysisFailureRecordsFacts: a failed analysis stores no
// analysis, and records every file's facts key, the extracted file's
// stored facts included.
func TestAnalysisFailureRecordsFacts(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, map[string]string{"a.go": goodSrc, "b.go": "package demo\n\nfunc (\n"})
	if _, err := c.Analysis(snap); err == nil {
		t.Fatal("an unparseable file analyzed cleanly")
	}
	if st := c.Stats(); st.Entries != 0 || st.DiskEntries != 1 {
		t.Fatalf("entries %d, disk entries %d; want no analysis and a.go's facts", st.Entries, st.DiskEntries)
	}
	for _, f := range snap.Files {
		l := lineage{Stage: StageFacts, Scope: f.Path}
		if got := c.lineages[l]; !reflect.DeepEqual(got, []string{factsKey(f.SHA256)}) {
			t.Fatalf("%s facts lineage = %v", f.Name, got)
		}
	}
	if got := c.lineages[lineage{Stage: StageAnalysis, Scope: snap.Dir}]; len(got) != 1 {
		t.Fatalf("analysis lineage = %v, want the failed analysis's key", got)
	}
}

// TestDynamicWithoutKey: an empty build or suite identity runs without
// a key, so nothing is looked up, counted, stored or recorded; a failed
// run stores nothing and returns its error.
func TestDynamicWithoutKey(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	run := func() (DynamicRun, error) { runs++; return dynamicRun(1), nil }
	for _, id := range [][2]string{{"", "seed:HB"}, {"build", ""}} {
		if _, err := dynamicOf(c, id[0], id[1], run); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); runs != 2 || st.Entries != 0 || st.DiskEntries != 0 || len(st.Misses) != 0 || len(c.lineages) != 0 {
		t.Fatalf("runs %d, stats %+v, lineages %v: an unkeyed run touched the cache", runs, st, c.lineages)
	}

	failure := errors.New("plan references unknown test")
	for i := 0; i < 2; i++ {
		if _, err := dynamicOf(c, "build", "seed:HB", func() (DynamicRun, error) { runs++; return DynamicRun{}, failure }); err != failure {
			t.Fatalf("failed run returned %v", err)
		}
	}
	if st := c.Stats(); runs != 4 || st.Entries != 0 || st.DiskEntries != 0 || st.Misses[StageDynamic] != 2 {
		t.Fatalf("runs %d, stats %+v: a failed run was stored", runs, st)
	}
}
