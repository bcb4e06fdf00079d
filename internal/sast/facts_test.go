package sast

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/source"
)

// loadHDFS loads the HDFS corpus app into a fresh snapshot store, so
// each call starts with empty memos (a simulated cold process).
func loadHDFS(t testing.TB) *source.Snapshot {
	t.Helper()
	app, err := corpus.ByCode("HD")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := source.NewStore(nil).Load(app.Dir)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// memFactsStore is an in-memory FactsStore that round-trips through the
// wire encoding on every access, the way the disk tier does.
type memFactsStore struct {
	entries    map[string][]byte
	gets, puts int
}

func newMemFactsStore() *memFactsStore {
	return &memFactsStore{entries: make(map[string][]byte)}
}

func (m *memFactsStore) GetFacts(hash string) (*FileFacts, bool) {
	data, ok := m.entries[hash]
	if !ok {
		return nil, false
	}
	ff, err := DecodeFacts(data, hash)
	if err != nil {
		return nil, false
	}
	m.gets++
	return ff, true
}

func (m *memFactsStore) PutFacts(hash string, ff *FileFacts) {
	data, err := EncodeFacts(ff)
	if err != nil {
		return
	}
	m.entries[hash] = data
	m.puts++
}

// TestFactsEncodingDeterministic proves the format's round-trip
// guarantee over real corpus files: encode → decode → encode is
// byte-identical, so a disk entry re-persisted after a restart never
// churns.
func TestFactsEncodingDeterministic(t *testing.T) {
	snap := loadHDFS(t)
	for _, f := range snap.Files {
		ff, err := extractFacts(f)
		if err != nil {
			t.Fatal(err)
		}
		first, err := EncodeFacts(ff)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeFacts(first, f.SHA256)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		second, err := EncodeFacts(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: re-encoding changed bytes:\n%s\n%s", f.Name, first, second)
		}
	}
}

// TestDecodeFactsFailsClosed covers every rejection path: malformed
// bytes, a truncated entry, a format-version mismatch (what a schema
// bump looks like to a stale store file) and a content-hash mismatch.
func TestDecodeFactsFailsClosed(t *testing.T) {
	good, err := EncodeFacts(&FileFacts{
		Schema: FactsSchema, Hash: "abc", Pkg: "demo",
		Funcs: []FuncFacts{{Key: "F", Calls: []string{"g"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	stale, err := EncodeFacts(&FileFacts{Schema: "wasabi-facts/v0", Hash: "abc", Pkg: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		data     []byte
		wantHash string
		wantErr  string
	}{
		{"garbage", []byte("not json"), "abc", "decode facts"},
		{"truncated", good[:len(good)/2], "abc", "decode facts"},
		{"schema mismatch", stale, "abc", "schema mismatch"},
		{"hash mismatch", good, "other", "hash mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeFacts(tc.data, tc.wantHash)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
	if _, err := DecodeFacts(good, "abc"); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
}

// FuzzDecodeFacts fuzzes the facts decoder at the disk trust boundary,
// differentially. No input may panic; an accepted entry must carry
// FactsSchema and the requested hash, must fail closed under any other
// hash, and must decode under encoding/json to DeepEqual facts; and its
// re-encoding must decode to the same facts and re-encode to the same
// bytes. Seeds are the fail-closed fixtures plus every seed-corpus
// file's extracted facts, and run under plain go test.
func FuzzDecodeFacts(f *testing.F) {
	good, err := EncodeFacts(&FileFacts{
		Schema: FactsSchema, Hash: "abc", Pkg: "demo",
		Funcs: []FuncFacts{{Key: "F", Calls: []string{"g"}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, "abc")
	f.Add(good, "other")
	f.Add(good[:len(good)/2], "abc")
	f.Add([]byte("not json"), "abc")
	f.Add([]byte(`{"schema":"wasabi-facts/v0","hash":"abc","pkg":"demo"}`), "abc")
	f.Add([]byte(`{"schema":"wasabi-facts/v1","hash":"abc","funcs":[{"key":"F","calls":[],"loops":[{"line":3,"excluded":[]}]}]}`), "abc")
	store := source.NewStore(nil)
	for _, app := range corpus.Apps() {
		snap, err := store.Load(app.Dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range snap.Files {
			ff, err := extractFacts(file)
			if err != nil {
				f.Fatal(err)
			}
			data, err := EncodeFacts(ff)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data, file.SHA256)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, hash string) {
		ff, err := DecodeFacts(data, hash)
		if err != nil {
			return
		}
		if ff.Schema != FactsSchema || ff.Hash != hash {
			t.Fatalf("accepted schema %q hash %q, want %q %q", ff.Schema, ff.Hash, FactsSchema, hash)
		}
		var ref FileFacts
		if err := json.Unmarshal(data, &ref); err != nil || !reflect.DeepEqual(ff, &ref) {
			t.Fatalf("decoders differ (encoding/json err %v):\njsonread      %+v\nencoding/json %+v", err, ff, &ref)
		}
		if _, err := DecodeFacts(data, hash+"x"); err == nil {
			t.Fatal("entry accepted under a different content hash")
		}
		enc, err := EncodeFacts(ff)
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodeFacts(enc, hash)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(canonicalFacts(ff), again) {
			t.Fatalf("re-decoded facts differ:\n%+v\n%+v", ff, again)
		}
		if enc2, err := EncodeFacts(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point (err %v):\n%s\n%s", err, enc, enc2)
		}
	})
}

// canonicalFacts returns a copy of ff with empty slices made nil: the
// encoding omits empty slices, so "[]" and an absent field decode alike
// after one round trip, and every reader ranges over them the same way.
func canonicalFacts(ff *FileFacts) *FileFacts {
	nilEmpty := func(s []string) []string {
		if len(s) == 0 {
			return nil
		}
		return s
	}
	out := *ff
	out.Funcs = nil
	for _, fn := range ff.Funcs {
		fn.Throws, fn.Calls = nilEmpty(fn.Throws), nilEmpty(fn.Calls)
		loops := fn.Loops
		fn.Loops = nil
		for _, l := range loops {
			l.Excluded, l.Calls = nilEmpty(l.Excluded), nilEmpty(l.Calls)
			fn.Loops = append(fn.Loops, l)
		}
		out.Funcs = append(out.Funcs, fn)
	}
	return &out
}

// TestAnalyzeSnapshotWithStoreMatchesDirect proves the acceptance
// property of the portable tier: an analysis hydrated entirely from
// encoded facts equals an analysis extracted from ASTs — including the
// unexported merge inputs — and the hydrated pass extracts nothing.
func TestAnalyzeSnapshotWithStoreMatchesDirect(t *testing.T) {
	direct, err := AnalyzeSnapshot(loadHDFS(t))
	if err != nil {
		t.Fatal(err)
	}

	store := newMemFactsStore()
	cold := loadHDFS(t)
	if _, err := AnalyzeSnapshotWith(cold, store); err != nil {
		t.Fatal(err)
	}
	if store.puts != len(cold.Files) {
		t.Fatalf("cold run persisted %d facts, want %d", store.puts, len(cold.Files))
	}

	store.gets, store.puts = 0, 0
	warm := loadHDFS(t)
	hydrated, err := AnalyzeSnapshotWith(warm, store)
	if err != nil {
		t.Fatal(err)
	}
	if store.gets != len(warm.Files) || store.puts != 0 {
		t.Fatalf("warm run: gets = %d, puts = %d; want %d hydrations and no extraction",
			store.gets, store.puts, len(warm.Files))
	}
	if !reflect.DeepEqual(direct, hydrated) {
		t.Fatalf("hydrated analysis diverges from direct analysis:\n%+v\n%+v", direct, hydrated)
	}
}
