package corpusgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wasabi/internal/apps/corpus"
)

// Load reads a generated corpus root's machine-readable spec
// (corpusgen.json) back into memory.
func Load(root string) (*Corpus, error) {
	raw, err := os.ReadFile(filepath.Join(root, SpecFile))
	if err != nil {
		return nil, fmt.Errorf("corpusgen: reading spec: %w", err)
	}
	var c Corpus
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("corpusgen: parsing %s: %w", SpecFile, err)
	}
	if c.Schema != SpecSchema {
		return nil, fmt.Errorf("corpusgen: %s has schema %q, want %q", SpecFile, c.Schema, SpecSchema)
	}
	return &c, nil
}

// LoadApps returns the generated corpus as pipeline-ready applications:
// each app's Dir points at its emitted sources (for the SAST and LLM
// lanes), its Suite at the interpreter (for the dynamic lane), and its
// Manifest at the derived ground truth. The result is a drop-in
// replacement for corpus.Apps(). The spec comes from outside the
// program, so an app whose pkg is not one clean path element (its Dir
// would leave the root) or whose code repeats an earlier app's is an
// error.
func LoadApps(root string) ([]corpus.App, *Corpus, error) {
	c, err := Load(root)
	if err != nil {
		return nil, nil, err
	}
	apps := make([]corpus.App, 0, len(c.Apps))
	seen := make(map[string]bool, len(c.Apps))
	for _, a := range c.Apps {
		if a.Pkg == "" || a.Pkg == "." || a.Pkg == ".." || strings.ContainsAny(a.Pkg, `/\`) {
			return nil, nil, fmt.Errorf("corpusgen: app %q: pkg %q is not a single path element", a.Code, a.Pkg)
		}
		if seen[a.Code] {
			return nil, nil, fmt.Errorf("corpusgen: app %q: code repeated", a.Code)
		}
		seen[a.Code] = true
		apps = append(apps, corpus.App{
			Code:     a.Code,
			Name:     a.Name,
			Dir:      filepath.Join(root, a.Pkg),
			Suite:    Suite(a),
			Manifest: a.Manifest(),
		})
	}
	return apps, c, nil
}
