// facts.go defines the portable retry-facts format — the AST-free,
// position-compact encoding of everything the §3.1.1 analyses actually
// consume from one parsed file. A FileFacts entry carries the package
// name plus, per function declaration: its normalized key, declared
// Throws classes, fault-hook instrumentability, the bare callee names
// of its body, and the structural retry-loop candidates (line, keyword
// flag, excluded exceptions, loop-body callees). That is exactly the
// input of the cross-file merge (loops.go), so AnalyzeSnapshot can run
// over decoded facts without ever touching go/ast — which is what lets
// the static tier round-trip through the disk cache and survive a
// daemon restart at zero parses.
//
// The encoding is versioned and deterministic: structs marshal with a
// fixed field order, every slice is emitted in a canonical (sorted or
// syntax-stable) order, and encode→decode→encode is byte-identical.
// Entries are keyed by (content hash, FactsSchema) — see
// internal/cache/keys.go — so bumping FactsSchema orphans old entries
// as clean misses, never decode errors.
package sast

import (
	"encoding/json"
	"fmt"

	"wasabi/internal/jsonread"
)

// FactsSchema identifies the retry-facts format, and doubles as the
// extraction version folded into facts cache keys. Bump it whenever
// extraction output changes for unchanged input: old entries then miss
// cleanly (their keys are never derived again) and re-extraction
// repopulates the tier.
const FactsSchema = "wasabi-facts/v1"

// FileFacts is one file's extraction artifact in portable form.
type FileFacts struct {
	// Schema is FactsSchema, stored redundantly so a stray or stale file
	// fails closed at decode time.
	Schema string `json:"schema"`
	// Hash is the content SHA-256 the facts were extracted from.
	Hash string `json:"hash"`
	// Pkg is the file's Go package name.
	Pkg string `json:"pkg"`
	// Funcs are the file's function declarations in source order.
	Funcs []FuncFacts `json:"funcs,omitempty"`
}

// FuncFacts is one extracted function declaration.
type FuncFacts struct {
	// Key is the pkg-unqualified FuncKey: "Type.method" or "func".
	Key string `json:"key"`
	// Throws lists the exception classes of the "Throws:" doc line.
	Throws []string `json:"throws,omitempty"`
	// HasHook reports whether the body calls fault.Hook.
	HasHook bool `json:"has_hook,omitempty"`
	// Calls are the bare callee names of the body (sorted, deduped,
	// cross-package utility calls excluded) — the merge resolves them
	// against the corpus method index, so only the set matters.
	Calls []string `json:"calls,omitempty"`
	// Loops are the structural retry-loop candidates (loops whose header
	// a catch block reaches), in syntax order.
	Loops []LoopFacts `json:"loops,omitempty"`
}

// LoopFacts is one structural retry-loop candidate — position-compact:
// a line number instead of an AST node.
type LoopFacts struct {
	// Line is the loop's 1-based source line.
	Line int `json:"line"`
	// Keyworded reports whether the loop passes the retry-naming filter.
	Keyworded bool `json:"keyworded,omitempty"`
	// Excluded are the "catch and abort" exception classes (sorted).
	Excluded []string `json:"excluded,omitempty"`
	// Calls are the bare callee names of the loop body (sorted, deduped).
	Calls []string `json:"calls,omitempty"`
}

// FactsStore is the persistence seam AnalyzeSnapshot hydrates extraction
// facts through, keyed by content hash. *cache.Cache implements it with
// its disk tier, nil-safely (the interface lives here because the cache
// package depends on sast); a nil store disables hydration and every
// file extracts from its AST.
type FactsStore interface {
	// GetFacts returns the decoded facts for a content hash, or false —
	// a corrupt, truncated or version-mismatched entry is a miss, never
	// an error.
	GetFacts(contentSHA256 string) (*FileFacts, bool)
	// PutFacts persists freshly extracted facts, best-effort.
	PutFacts(contentSHA256 string, ff *FileFacts)
}

// EncodeFacts renders the canonical facts bytes. Encoding is a pure
// function of the facts value, and decoding then re-encoding reproduces
// the bytes exactly (TestFactsEncodingDeterministic).
func EncodeFacts(ff *FileFacts) ([]byte, error) {
	return json.Marshal(ff)
}

// DecodeFacts parses facts bytes, verifying the format version and the
// content hash they claim to describe. Any mismatch fails closed. It
// reads only the form EncodeFacts writes (package jsonread), so a
// reformatted or hand-edited entry is a decode error.
func DecodeFacts(data []byte, wantHash string) (*FileFacts, error) {
	ff := &FileFacts{Schema: FactsSchema, Hash: wantHash}
	r := jsonread.New(data)
	r.Open()
	schemaOK := r.Equal("schema", FactsSchema)
	hashOK := r.Equal("hash", wantHash)
	r.String("pkg", &ff.Pkg)
	jsonread.Slice(&r, "funcs", &ff.Funcs, readFunc)
	r.Close()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("sast: decode facts: %w", err)
	}
	if !schemaOK {
		return nil, fmt.Errorf("sast: facts schema mismatch (want %q)", FactsSchema)
	}
	if !hashOK {
		return nil, fmt.Errorf("sast: facts hash mismatch")
	}
	return ff, nil
}

func readFunc(r *jsonread.Reader, fn *FuncFacts) {
	r.String("key", &fn.Key)
	r.Strings("throws", &fn.Throws)
	r.Bool("has_hook", &fn.HasHook)
	r.Strings("calls", &fn.Calls)
	jsonread.Slice(r, "loops", &fn.Loops, readLoop)
}

func readLoop(r *jsonread.Reader, l *LoopFacts) {
	jsonread.Int(r, "line", &l.Line)
	r.Bool("keyworded", &l.Keyworded)
	r.Strings("excluded", &l.Excluded)
	r.Strings("calls", &l.Calls)
}
