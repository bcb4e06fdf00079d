package llm_test

// The evidence read is differentially tested: gatherEvidence, which finds
// a function's comments by binary search, lowercases each string once
// and skips checks whose flag is already set, must agree with the
// reference read (evidence_ref_test.go) on every function of the seed
// corpus, of generated corpora, and of any source the fuzzer finds that
// parses.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/corpusgen"
	"wasabi/internal/llm"
	"wasabi/internal/source"
)

// sourceFiles returns the paths of dir's source files, as a snapshot
// would load them.
func sourceFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && source.IsSourceFile(e.Name()) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// seedCorpusFiles returns every source file of the seed corpus.
func seedCorpusFiles(t testing.TB) []string {
	t.Helper()
	var out []string
	for _, app := range corpus.Apps() {
		out = append(out, sourceFiles(t, app.Dir)...)
	}
	return out
}

// checkEvidence fails t on the first function of any file whose evidence
// differs from the reference read, and returns how many files it read.
func checkEvidence(t *testing.T, files []string) int {
	t.Helper()
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := llm.DiffEvidence(path, src)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if diff != "" {
			t.Fatal(diff)
		}
	}
	return len(files)
}

func TestEvidenceMatchesReferenceSeedCorpus(t *testing.T) {
	if n := checkEvidence(t, seedCorpusFiles(t)); n == 0 {
		t.Fatal("seed corpus has no source files")
	}
}

func TestEvidenceMatchesReferenceGenerated(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, err := corpusgen.Generate(corpusgen.Config{Seed: seed, Scale: 2})
			if err != nil {
				t.Fatal(err)
			}
			root := t.TempDir()
			if err := corpusgen.Write(c, root, 1); err != nil {
				t.Fatal(err)
			}
			apps, _, err := corpusgen.LoadApps(root)
			if err != nil {
				t.Fatal(err)
			}
			var files []string
			for _, app := range apps {
				files = append(files, sourceFiles(t, app.Dir)...)
			}
			if n := checkEvidence(t, files); n == 0 {
				t.Fatal("generated corpus has no source files")
			}
		})
	}
}

// FuzzEvidenceMatchesReference seeds from every seed-corpus file, so
// plain go test runs the whole seed corpus through it, and compares the
// two reads on any mutation that still parses.
func FuzzEvidenceMatchesReference(f *testing.F) {
	for _, path := range seedCorpusFiles(f) {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	// Comments the model reads as written must match what their group's
	// Text gives: directives are left out, block markers and line
	// breaks never join a word.
	f.Add([]byte("package p\n\n//go:generate retry\n//line x.go:1\n//export Poll\n// back\n// off\nfunc F() {\n\t/* re-\ntry */\n\tfor i := 0; i < 3; i++ { //nolint:retry\n\t}\n}\n"))
	// Unicode lowercasing can turn a non-ASCII letter into an ASCII
	// one: İ becomes i plus a combining dot, the Kelvin sign becomes k.
	f.Add([]byte("package p\n\n// RETRİES the BAC\u212aOFF\nfunc F(err error) {\n\tvar RETRİES, BAC\u212aOFF int\n\tfor err != nil {\n\t\t_, _ = RETRİES, BAC\u212aOFF\n\t}\n}\n"))
	// A sleep helper declared after its caller, and one whose sleep
	// follows a resilience policy call.
	f.Add([]byte("package p\n\nfunc A(err error) {\n\tfor err != nil {\n\t\tpause()\n\t}\n}\n\nfunc pause() { time.Sleep(1) }\n\nfunc C(q Queue, err error) {\n\tif err != nil {\n\t\tq.Put(1)\n\t}\n\tresilience.NewPolicy()\n\tspin()\n\ttime.Sleep(2)\n}\n\nfunc D() { C(nil, nil) }\n"))
	// A loop's header is not its body: an error check or a switch and
	// a sleep in a closure of the header do not make the loop handle an
	// error or pause on a status, while nested loops' bodies count for
	// the loops around them.
	f.Add([]byte("package p\n\nfunc F(err error) {\n\tfor i := func() int { if err != nil { return 1 }; switch { }; time.Sleep(1); return 0 }(); i < 3; i++ {\n\t}\n\tfor range func() []int { if err != nil { return nil }; return nil }() {\n\t}\n}\n\nfunc G(err error) {\n\tfor {\n\t\tfor _, x := range xs {\n\t\t\tswitch x {\n\t\t\t}\n\t\t}\n\t\tfor {\n\t\t\tif err != nil {\n\t\t\t\tpause()\n\t\t\t}\n\t\t\tclock.Sleep(1)\n\t\t}\n\t}\n}\n"))
	// Once a function is known to sleep, requeue, poll and be capped,
	// a call can still be the sleep of a status loop.
	f.Add([]byte("package p\n\nfunc H(q Queue, err error) {\n\ttime.Sleep(1)\n\tif err != nil {\n\t\tq.Requeue(1)\n\t}\n\tpoll()\n\tfor i := 0; i < 3; i++ {\n\t\tswitch i {\n\t\t}\n\t\tclock.Sleep(1)\n\t}\n}\n"))
	f.Fuzz(func(t *testing.T, src []byte) {
		diff, err := llm.DiffEvidence("fuzz.go", src)
		if err != nil {
			return
		}
		if diff != "" {
			t.Fatal(diff)
		}
	})
}
