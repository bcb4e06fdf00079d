package cache

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"wasabi/internal/fault"
	"wasabi/internal/obs"
	"wasabi/internal/oracle"
)

// dynamicRun builds a distinguishable DynamicRun fixture.
func dynamicRun(failed int) DynamicRun {
	return DynamicRun{
		Reports: []oracle.Report{{
			Kind: oracle.MissingCap, App: "HB", Test: "hbase.TestX",
			Coordinator: "hbase.X.run", Retried: "hbase.X.call", Exception: "IOException",
			GroupKey: "hbase.X.run", Details: "injected 100 times",
		}},
		TestsCoveringRetry: 3, StructuresTested: 2, StrippedOverrides: 1,
		PlanEntries: 4, NaiveRuns: 12, PlannedRuns: 8, InjectionRunsFailed: failed,
	}
}

var dynLocs = []fault.Location{
	{Coordinator: "c", Retried: "m", Exception: "IOException"},
	{Coordinator: "c", Retried: "m", Exception: "TimeoutException"},
}

func TestDynamicKeyInputs(t *testing.T) {
	o := oracle.DefaultOptions()
	base := DynamicKey("build", "seed:HB", "HB", dynLocs, 1, 100, o)
	if base == "" {
		t.Fatal("identified run got no key")
	}
	withMetrics := o
	withMetrics.Metrics = obs.NewRegistry()
	if DynamicKey("build", "seed:HB", "HB", dynLocs, 1, 100, withMetrics) != base {
		t.Fatal("the oracle's metrics registry changed the key")
	}
	reordered := []fault.Location{dynLocs[1], dynLocs[0]}
	cap50, timeout := o, o
	cap50.CapThreshold = 50
	timeout.VirtualTimeout = time.Minute
	for name, k := range map[string]string{
		"build":     DynamicKey("other", "seed:HB", "HB", dynLocs, 1, 100, o),
		"suite":     DynamicKey("build", "seed:HD", "HB", dynLocs, 1, 100, o),
		"app":       DynamicKey("build", "seed:HB", "HD", dynLocs, 1, 100, o),
		"locations": DynamicKey("build", "seed:HB", "HB", dynLocs[:1], 1, 100, o),
		"order":     DynamicKey("build", "seed:HB", "HB", reordered, 1, 100, o),
		"HowK":      DynamicKey("build", "seed:HB", "HB", dynLocs, 2, 100, o),
		"CapK":      DynamicKey("build", "seed:HB", "HB", dynLocs, 1, 99, o),
		"cap":       DynamicKey("build", "seed:HB", "HB", dynLocs, 1, 100, cap50),
		"timeout":   DynamicKey("build", "seed:HB", "HB", dynLocs, 1, 100, timeout),
	} {
		if k == base || k == "" {
			t.Errorf("changing %s kept the key", name)
		}
	}
	if DynamicKey("", "seed:HB", "HB", dynLocs, 1, 100, o) != "" ||
		DynamicKey("build", "", "HB", dynLocs, 1, 100, o) != "" {
		t.Fatal("a run without build or suite identity got a key")
	}
}

// TestDynamicRoundTrip stores a dynamic run, reads it from memory and,
// through a fresh instance over the same directory, from disk; the
// empty key is inert.
func TestDynamicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := DynamicKey("build", "seed:HB", "HB", dynLocs, 1, 100, oracle.DefaultOptions())
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c1.GetDynamic(key); ok {
		t.Fatal("hit on empty cache")
	}
	want := dynamicRun(5)
	c1.PutDynamic(key, want)
	got, ok := c1.GetDynamic(key)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("memory round trip: ok=%v\n%+v", ok, got)
	}
	// A memory hit decodes nothing: two hits return the same value.
	if again, _ := c1.GetDynamic(key); &again.Reports[0] != &got.Reports[0] {
		t.Fatal("hits return distinct values, want one shared value")
	}

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok = c2.GetDynamic(key)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("disk round trip: ok=%v\n%+v", ok, got)
	}
	if st := c2.Stats(); st.DiskLoads != 1 || st.Hits[StageDynamic] != 1 {
		t.Fatalf("disk loads/hits = %d/%d, want 1/1", st.DiskLoads, st.Hits[StageDynamic])
	}

	before := c2.Stats()
	c2.PutDynamic("", want)
	if _, ok := c2.GetDynamic(""); ok {
		t.Fatal("empty key hit")
	}
	after := c2.Stats()
	if after.Entries != before.Entries || after.Misses[StageDynamic] != before.Misses[StageDynamic] ||
		after.DiskEntries != before.DiskEntries {
		t.Fatalf("empty key touched the cache: %+v → %+v", before, after)
	}

	// A corrupt disk entry is a miss, and the file is dropped.
	if err := os.WriteFile(c2.entryPath(key), []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.GetDynamic(key); ok {
		t.Fatal("corrupt dynamic entry served as a hit")
	}
	if _, err := os.Stat(c3.entryPath(key)); !os.IsNotExist(err) {
		t.Fatalf("corrupt dynamic entry not deleted (err=%v)", err)
	}
}

func TestStatsTotals(t *testing.T) {
	s := Stats{
		Hits:   map[string]int64{StageReview: 2, StageFacts: 3, StageDynamic: 1},
		Misses: map[string]int64{StageAnalysis: 4, StageDynamic: 1},
	}
	if h, m := s.Totals(); h != 6 || m != 5 {
		t.Fatalf("totals = %d/%d, want 6/5", h, m)
	}
}

// TestBuildID reads the test binary's own build-ID note: present and
// stable on ELF platforms.
func TestBuildID(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the build-ID note is read from ELF executables")
	}
	id := BuildID()
	if id == "" {
		t.Fatal("no build ID read from the test executable")
	}
	if again := readBuildID(); again != id {
		t.Fatalf("build ID unstable: %q then %q", id, again)
	}
}

// FuzzDecodeDynamic fuzzes the dynamic-envelope decoder at the disk
// trust boundary: no input may panic; an accepted envelope carries this
// schema and key and fails closed under any other key; and its
// re-encoding decodes to the same run and re-encodes to the same bytes.
// The seeds run under plain go test.
func FuzzDecodeDynamic(f *testing.F) {
	key := DynamicKey("build", "seed:HB", "HB", dynLocs, 1, 100, oracle.DefaultOptions())
	good, err := encodeDynamic(key, dynamicRun(2))
	if err != nil {
		f.Fatal(err)
	}
	empty, err := encodeDynamic(key, DynamicRun{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, key)
	f.Add(empty, key)
	f.Add(good, DynamicKey("other", "seed:HB", "HB", dynLocs, 1, 100, oracle.DefaultOptions()))
	f.Add(good[:len(good)/2], key)
	f.Add([]byte("{garbage"), key)
	f.Add([]byte(`{"schema":"wasabi-dynamic-cache/v0","key":"`+key+`","run":{}}`), key)
	f.Add([]byte(`{"schema":"wasabi-review-cache/v1","key":"`+key+`","review":{}}`), key)
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		run, err := decodeDynamic(data, key)
		if err != nil {
			return
		}
		var env dynamicEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.Schema != dynamicSchema || env.Key != key {
			t.Fatalf("accepted envelope schema %q key %q (err %v)", env.Schema, env.Key, err)
		}
		if _, err := decodeDynamic(data, key+"x"); err == nil {
			t.Fatal("envelope accepted under a different key")
		}
		enc, err := encodeDynamic(key, run)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeDynamic(enc, key)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(run, again) {
			t.Fatalf("re-decoded run differs:\n%+v\n%+v", run, again)
		}
		if enc2, err := encodeDynamic(key, again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point (err %v):\n%s\n%s", err, enc, enc2)
		}
	})
}
