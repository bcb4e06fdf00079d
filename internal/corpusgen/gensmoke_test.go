package corpusgen

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/source"
)

// TestGenSmoke is the `make gen-smoke` gate: generate a 10× corpus into
// a temp dir, run the static-only pipeline (identification; no fault
// injection), and require zero parse failures plus a ledger whose
// candidate count equals the manifest count. A second identification
// pass over the same cache and snapshot store — the daemon's warm
// shape — must spend zero fresh LLM tokens and reproduce every app's
// structure list.
func TestGenSmoke(t *testing.T) {
	const scale = 10
	c, err := Generate(Config{Seed: 1, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := Write(c, root, 8); err != nil {
		t.Fatal(err)
	}

	// Every emitted source file must parse: the corpus is useless to the
	// static lanes otherwise.
	parsed := 0
	fset := token.NewFileSet()
	for _, app := range c.Apps {
		dir := filepath.Join(root, app.Pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".go" {
				continue
			}
			if _, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments); err != nil {
				t.Errorf("parse failure: %v", err)
			}
			parsed++
		}
	}
	wantFiles := structuresPerScale * scale
	if parsed != wantFiles {
		t.Errorf("parsed %d files, want %d", parsed, wantFiles)
	}

	// Static-only pipeline: identification over every generated app.
	apps, spec, err := LoadApps(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != appsPerScale*scale {
		t.Fatalf("loaded %d apps, want %d", len(apps), appsPerScale*scale)
	}
	ca, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Cache = ca
	opts.Source = source.NewStore(nil)
	identify := func() ([][]core.Structure, int64) {
		w := core.New(opts)
		out := make([][]core.Structure, 0, len(apps))
		for _, app := range apps {
			id, err := w.Identify(app)
			if err != nil {
				t.Fatalf("identify %s: %v", app.Code, err)
			}
			out = append(out, id.Structures)
		}
		return out, w.LLMUsage().TokensIn
	}
	cold, coldTokens := identify()
	identified := 0
	for _, ss := range cold {
		identified += len(ss)
	}
	if identified == 0 {
		t.Fatal("static lanes identified no structures in the generated corpus")
	}
	if coldTokens == 0 {
		t.Fatal("cold pass spent no fresh tokens; the warm check proves nothing")
	}
	warm, warmTokens := identify()
	if warmTokens != 0 {
		t.Errorf("warm pass spent %d fresh tokens, want 0", warmTokens)
	}
	for i, app := range apps {
		if !reflect.DeepEqual(cold[i], warm[i]) {
			t.Errorf("%s: warm structures differ from the cold pass", app.Code)
		}
	}

	// The fresh ledger tracks every manifest structure as a candidate.
	led, err := LoadLedger(root)
	if err != nil {
		t.Fatal(err)
	}
	manifests := spec.Manifests()
	if led.Candidates != len(manifests) || len(led.Entries) != len(manifests) {
		t.Errorf("ledger candidates=%d entries=%d, want both == manifest count %d",
			led.Candidates, len(led.Entries), len(manifests))
	}
}
