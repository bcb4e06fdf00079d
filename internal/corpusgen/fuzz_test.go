package corpusgen

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The spec and the ledger are the two files a -corpus root hands the
// CLI and the daemon, so they are decoders at a trust boundary. Both
// fuzz targets check that no input panics (LoadApps also builds every
// app's suite and manifest), and that an accepted file, written back
// the way the generator writes it, loads again and re-renders to the
// same bytes. Seeds are a generated corpus's own files plus the
// rejection cases, and run under plain go test.

// loadRendered writes raw as root's file name and loads it with load;
// on success it returns the value's rendering by writeJSON.
func loadRendered[T any](t *testing.T, name string, raw []byte, load func(string) (T, error)) ([]byte, bool) {
	t.Helper()
	root := t.TempDir()
	path := filepath.Join(root, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := load(root)
	if err != nil {
		return nil, false
	}
	if err := writeJSON(path, v); err != nil {
		t.Fatal(err)
	}
	rendered, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return rendered, true
}

// fuzzRoundTrip is the shared property: an accepted input's rendering
// is accepted too and is a fixed point.
func fuzzRoundTrip[T any](t *testing.T, name string, raw []byte, load func(string) (T, error)) {
	rendered, ok := loadRendered(t, name, raw, load)
	if !ok {
		return
	}
	again, ok := loadRendered(t, name, rendered, load)
	if !ok {
		t.Fatalf("accepted %s, but its rendering does not load:\n%s", name, rendered)
	}
	if !bytes.Equal(rendered, again) {
		t.Fatalf("%s rendering is not a fixed point:\n%s\n%s", name, rendered, again)
	}
}

// seedFiles returns the spec and ledger bytes of one generated app.
func seedFiles(f *testing.F) (spec, ledger []byte) {
	c, err := Generate(Config{Seed: 1, Scale: 1})
	if err != nil {
		f.Fatal(err)
	}
	c.Apps = c.Apps[:1]
	if spec, err = json.Marshal(c); err != nil {
		f.Fatal(err)
	}
	if ledger, err = json.Marshal(NewLedger(c)); err != nil {
		f.Fatal(err)
	}
	return spec, ledger
}

func FuzzLoadSpec(f *testing.F) {
	spec, _ := seedFiles(f)
	f.Add(spec)
	f.Add(spec[:len(spec)/2])
	f.Add([]byte(`{"schema":"corpusgen-spec/v0","apps":[]}`))
	f.Add([]byte(`{"schema":"` + SpecSchema + `","apps":[{"code":"G001","structures":[{}]}]}`))
	f.Add([]byte(`{garbage`))
	f.Add([]byte(`{"schema":"` + SpecSchema + `","apps":[{"code":"G001","pkg":"../../etc"}]}`))
	f.Add([]byte(`{"schema":"` + SpecSchema + `","apps":[{"code":"G001","pkg":"a"},{"code":"G001","pkg":"b"}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzRoundTrip(t, SpecFile, raw, func(root string) (*Corpus, error) {
			apps, c, err := LoadApps(root)
			codes := make(map[string]bool, len(apps))
			for _, a := range apps {
				if filepath.Dir(a.Dir) != root {
					t.Fatalf("app %s: Dir %q is not a child of the root %q", a.Code, a.Dir, root)
				}
				if codes[a.Code] {
					t.Fatalf("app code %s accepted twice", a.Code)
				}
				codes[a.Code] = true
			}
			return c, err
		})
	})
}

// TestLoadAppsRejectsUnsafeSpec: an app whose pkg would place its Dir
// anywhere but directly under the root, or whose code repeats an
// earlier app's, is refused, and the error names the app.
func TestLoadAppsRejectsUnsafeSpec(t *testing.T) {
	for _, tc := range []struct {
		name  string
		apps  string
		valid bool
	}{
		{"plain", `{"code":"G001","pkg":"gen001"},{"code":"G002","pkg":"gen002"}`, true},
		{"parent", `{"code":"G001","pkg":"gen001"},{"code":"G002","pkg":"../../etc"}`, false},
		{"dotdot", `{"code":"G002","pkg":".."}`, false},
		{"dot", `{"code":"G002","pkg":"."}`, false},
		{"empty", `{"code":"G002","pkg":""}`, false},
		{"nested", `{"code":"G002","pkg":"a/b"}`, false},
		{"backslash", `{"code":"G002","pkg":"a\\b"}`, false},
		{"repeated-code", `{"code":"G002","pkg":"gen001"},{"code":"G002","pkg":"gen002"}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			spec := `{"schema":"` + SpecSchema + `","apps":[` + tc.apps + `]}`
			if err := os.WriteFile(filepath.Join(root, SpecFile), []byte(spec), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := LoadApps(root)
			if tc.valid {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), `app "G002"`) {
				t.Fatalf("LoadApps error = %v, want a rejection naming app G002", err)
			}
		})
	}
}

func FuzzLoadLedger(f *testing.F) {
	_, ledger := seedFiles(f)
	f.Add(ledger)
	f.Add(ledger[:len(ledger)/2])
	f.Add([]byte(`{"schema":"corpusgen-ledger/v0"}`))
	f.Add([]byte(`{"schema":"` + LedgerSchema + `","entries":null}`))
	f.Add([]byte(`{garbage`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzRoundTrip(t, LedgerFile, raw, LoadLedger)
	})
}
