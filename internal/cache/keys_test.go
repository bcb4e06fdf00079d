package cache

// keys_test.go pins every key derivation to its definition: the hex
// SHA-256 of the NUL-terminated parts (refKeyOf), and for manifests the
// digest of the "%s\x00%s\x00%d\x00" triples. Keys name disk entries
// and lineages, so a derivation that builds its input differently must
// still produce the same bytes, including for parts longer than any
// stack buffer.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/fault"
	"wasabi/internal/llm"
	"wasabi/internal/oracle"
	"wasabi/internal/sast"
	"wasabi/internal/source"
)

// refKeyOf is the key definition: the hex SHA-256 of the parts, each
// followed by a NUL.
func refKeyOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// refManifest is the manifest digest definition.
func refManifest(snap *source.Snapshot) string {
	h := sha256.New()
	for _, f := range snap.Files {
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00", f.Name, f.SHA256, f.Size)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func refDynamicParts(build, suite, app string, howK, capK int, o oracle.Options) []string {
	return []string{"dynamic", dynamicSchema, build, suite, app,
		strconv.Itoa(howK), strconv.Itoa(capK),
		strconv.Itoa(o.CapThreshold), strconv.FormatInt(int64(o.VirtualTimeout), 10)}
}

func refDynamicKey(build, suite, app string, locs []fault.Location, howK, capK int, o oracle.Options) string {
	parts := refDynamicParts(build, suite, app, howK, capK, o)
	for _, l := range locs {
		parts = append(parts, l.Coordinator, l.Retried, l.Exception)
	}
	return refKeyOf(parts...)
}

// checkKeys compares every derivation over one set of inputs.
func checkKeys(t testing.TB, fp, path, sha, dir, build, suite, app string, locs []fault.Location, howK, capK int, o oracle.Options) {
	t.Helper()
	for _, c := range []struct{ name, got, want string }{
		{"review", ReviewKey(fp, path, sha), refKeyOf("review", fp, path, sha)},
		{"facts", factsKey(sha), refKeyOf("facts", sast.FactsSchema, sha)},
		{"analysis", AnalysisKey(dir, sha), refKeyOf("sast", AnalysisVersion, dir, sha)},
		{"dynamic", dynamicKey(build, suite, app, locs, howK, capK, o), refDynamicKey(build, suite, app, locs, howK, capK, o)},
		{"lineage", dynamicLineage(build, suite, app, howK, capK, o).Config, refKeyOf(refDynamicParts(build, suite, app, howK, capK, o)...)},
	} {
		if c.got != c.want {
			t.Fatalf("%s key = %s, want %s", c.name, c.got, c.want)
		}
	}
}

func TestKeysMatchReferenceOverSeedCorpus(t *testing.T) {
	store := source.NewStore(nil)
	fp := llm.DefaultConfig().Fingerprint()
	o := oracle.Options{CapThreshold: 100, VirtualTimeout: 15 * time.Minute}
	for _, app := range corpus.Apps() {
		snap, err := store.Load(app.Dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := FromSnapshot(snap).Digest, refManifest(snap); got != want {
			t.Fatalf("%s manifest = %s, want %s", app.Code, got, want)
		}
		a, err := sast.AnalyzeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		var locs []fault.Location
		for _, l := range a.Loops {
			for _, tr := range l.Triplets {
				locs = append(locs, fault.Location{Coordinator: tr.Coordinator, Retried: tr.Retried, Exception: tr.Exception})
			}
		}
		for _, f := range snap.Files {
			checkKeys(t, fp, f.Path, f.SHA256, snap.Dir, BuildID()+"-test", app.Suite.ID, app.Code, locs, 1, 100, o)
		}
	}
}

func TestKeysMatchReferenceOnLongParts(t *testing.T) {
	long := strings.Repeat("x", 300)
	locs := []fault.Location{{Coordinator: long, Retried: "r", Exception: "e"}, {Coordinator: "c", Retried: long + long, Exception: long}}
	o := oracle.Options{CapThreshold: -7, VirtualTimeout: -time.Hour}
	checkKeys(t, long, long+"/p.go", long, long, long+long, long, long, locs, -1, 1<<40, o)
	checkKeys(t, "", "", "", "", "b", "s", "", nil, 0, 0, oracle.Options{})
}

// TestKeyAllocs pins what deriving a key costs: keyOf's parts fit its
// stack buffer, so the returned string is its one allocation, and a
// manifest costs the same few allocations whatever the file count.
func TestKeyAllocs(t *testing.T) {
	sha := strings.Repeat("a", 64)
	if n := testing.AllocsPerRun(100, func() { ReviewKey("fp", "/a/b/c.go", sha) }); n != 1 {
		t.Fatalf("keyOf allocates %v objects, want 1", n)
	}
	manifestAllocs := func(files int) float64 {
		snap := &source.Snapshot{Dir: "/d"}
		for i := 0; i < files; i++ {
			snap.Files = append(snap.Files, &source.File{Name: fmt.Sprintf("f%03d.go", i), SHA256: strings.Repeat("a", 64), Size: int64(i * 100)})
		}
		return testing.AllocsPerRun(100, func() { FromSnapshot(snap) })
	}
	small, large := manifestAllocs(1), manifestAllocs(500)
	if small != large || large > 3 {
		t.Fatalf("FromSnapshot allocates %v objects for 1 file and %v for 500, want the same, at most 3", small, large)
	}
}

func FuzzKeyDerivations(f *testing.F) {
	f.Add("fp", "/a/p.go", "abc", "/a", "build", "seed:HD", "HD", "hdfs.A.run", "hdfs.A.call", "IOException", 1, 100, 100, int64(15*time.Minute))
	f.Add(strings.Repeat("f", 257), "", "\x00", "", "b", "s", "", strings.Repeat("c", 300), "", "", -1, 0, 0, int64(-1))
	f.Fuzz(func(t *testing.T, fp, path, sha, dir, build, suite, app, coord, retried, exc string, howK, capK, capThreshold int, timeout int64) {
		o := oracle.Options{CapThreshold: capThreshold, VirtualTimeout: time.Duration(timeout)}
		locs := []fault.Location{{Coordinator: coord, Retried: retried, Exception: exc}, {Coordinator: app, Retried: path, Exception: fp}}
		if build == "" || suite == "" {
			if k := dynamicKey(build, suite, app, locs, howK, capK, o); k != "" {
				t.Fatalf("dynamic key without a build or suite identity = %q, want empty", k)
			}
			build, suite = "b"+build, "s"+suite
		}
		checkKeys(t, fp, path, sha, dir, build, suite, app, locs, howK, capK, o)
	})
}
