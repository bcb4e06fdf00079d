package sast_test

// Extraction is differentially tested: factsOf, which reads each
// function body in one walk, must give facts DeepEqual to the reference
// extraction's (facts_ref_test.go) on every file of the seed corpus, of
// generated corpora, and of any source the fuzzer finds that parses.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/corpusgen"
	"wasabi/internal/sast"
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

// checkFacts fails t on the first file whose facts differ from the
// reference extraction's.
func checkFacts(t *testing.T, files []string) {
	t.Helper()
	if len(files) == 0 {
		t.Fatal("no source files")
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		diff, err := sast.DiffFacts(path, src)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if diff != "" {
			t.Fatal(diff)
		}
	}
}

func TestFactsMatchReference(t *testing.T) {
	t.Run("seed corpus", func(t *testing.T) { checkFacts(t, seedCorpusFiles(t)) })
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("generated seed%d", seed), func(t *testing.T) {
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
			checkFacts(t, files)
		})
	}
}

// FuzzFactsMatchReference seeds from every seed-corpus file, so plain
// go test runs the whole seed corpus through it, and compares the two
// extractions on any mutation that still parses.
func FuzzFactsMatchReference(f *testing.F) {
	for _, path := range seedCorpusFiles(f) {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	// Nested candidates: the outer loop's keyword is in the inner loop's
	// header, another loop's is only in its label (which is outside the
	// loop), and a third loop's is in a loop of a closure in its
	// condition; an outer body's calls include its inner loops' calls,
	// and a loop's header calls are not its body's. An inner loop
	// inside a keyworded one needs a keyword of its own.
	f.Add([]byte(`package p

func F(err error) {
	for n := next(); err != nil; n = next() {
		if err != nil {
			continue
		}
		retry(n)
	}
	for retries := 0; err != nil; retries++ {
		if err != nil {
			continue
		}
		for err != nil {
			if err != nil {
				continue
			}
			_ = "retry"
		}
		for err != nil {
			if err != nil {
				continue
			}
		}
	}
retryLoop:
	for err != nil {
		if err != nil {
			continue
		}
		for n := maxRetries; err != nil; n-- {
			if err != nil {
				continue
			}
			g()
		}
		h()
		if errmodel.IsClass(err, "X") {
			break retryLoop
		}
	}
retryOnly:
	for err != nil {
		if err != nil {
			continue
		}
		j()
	}
	for func() bool { for range "RETRY" { if err != nil { k() } }; return true }() {
		if err != nil {
			continue
		}
		m()
	}
}
`))
	// Unicode lowercasing can turn a non-ASCII letter into an ASCII one:
	// İ becomes i; ſ folds to s but lowercases to itself.
	f.Add([]byte(`package p

func F(err error) {
	for _, RETRİES := range x {
		if err != nil {
			continue
		}
	}
	for err != nil {
		if err != nil {
			continue
		}
		_ = "reſubmit"
	}
}
`))
	// Throws lines with empty classes, none at all, or a non-ASCII
	// space before them; a line directive moves a loop's line.
	f.Add([]byte("package p\n\n// Throws: A, , B.\nfunc F() {}\n\n//Throws:\nfunc G() {}\n\n// \u00a0Throws: C\n// Throws: D\nfunc H(err error) {\n//line other.go:100\n\tfor err != nil {\n\t\tif err != nil {\n\t\t\tcontinue\n\t\t}\n\t\tretry()\n\t}\n}\n"))
	f.Fuzz(func(t *testing.T, src []byte) {
		diff, err := sast.DiffFacts("fuzz.go", src)
		if err != nil {
			return
		}
		if diff != "" {
			t.Fatal(diff)
		}
	})
}
