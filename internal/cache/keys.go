// keys.go derives the cache's content addresses. A key never encodes
// *when* something was analyzed, only *what*: the input bytes and the
// configuration that interprets them (§4.3's cost model makes the review
// tier the one worth addressing precisely). docs/SERVICE.md documents
// the derivations for API consumers.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"wasabi/internal/sast"
	"wasabi/internal/source"
)

// AnalysisVersion identifies the static-analysis revision folded into
// analysis keys. Bump it when internal/sast's loop identification or
// throws resolution changes output for unchanged input.
const AnalysisVersion = "loops/v1"

// DirManifest is the content address of one application directory:
// a digest over every static-workflow source file (the
// source.IsSourceFile set).
type DirManifest struct {
	// Dir is the directory the manifest describes.
	Dir string
	// Digest is the hex SHA-256 over the sorted (name, hash, size)
	// triples — it changes iff any source file is added, removed,
	// renamed or edited.
	Digest string
	// TotalBytes sums the source file sizes. The program no longer
	// reads it; it stays while bench/replay.go still does.
	TotalBytes int64
}

// FromSnapshot derives the directory manifest from an already-loaded
// snapshot: the store hashed every file at load time, so no bytes are
// re-read and nothing is re-hashed. A snapshot covers the same file set
// the static workflows analyze, in sorted name order, so the manifest
// digest addresses exactly the inputs of both the static analysis and
// the per-file LLM reviews.
func FromSnapshot(snap *source.Snapshot) *DirManifest {
	m := &DirManifest{Dir: snap.Dir}
	h := sha256.New()
	for _, f := range snap.Files {
		m.TotalBytes += f.Size
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00", f.Name, f.SHA256, f.Size)
	}
	m.Digest = hex.EncodeToString(h.Sum(nil))
	return m
}

// ReviewKey addresses one file's LLM review: the client configuration
// fingerprint (llm.Config.Fingerprint — prompt version, seed,
// thresholds, failure-mode rates), the file's path (the simulated
// model's stochastic-looking decisions are seeded by it, just as a real
// prompt embeds the file name) and the content hash.
func ReviewKey(cfgFingerprint, path, contentSHA256 string) string {
	return keyOf("review", cfgFingerprint, path, contentSHA256)
}

// AnalysisKey addresses one directory's static analysis: the analyzer
// version and the directory manifest digest. The directory path is
// folded in because reported positions derive from it.
func AnalysisKey(dir, manifestDigest string) string {
	return keyOf("sast", AnalysisVersion, dir, manifestDigest)
}

// FactsKey addresses one file's retry-facts entry: the facts format
// version and the content hash — nothing else, because extraction is a
// pure function of the bytes (facts are shared across paths and
// configurations). Bumping sast.FactsSchema changes every key, so
// stale-format entries become unreferenced files rather than decode
// errors.
func FactsKey(contentSHA256 string) string {
	return keyOf("facts", sast.FactsSchema, contentSHA256)
}

// keyOf hashes the NUL-joined parts into a hex key. Keys are plain hex
// strings so the disk tier can use them directly as file names.
func keyOf(parts ...string) string {
	var stack [256]byte
	buf := stack[:0]
	for _, p := range parts {
		buf = append(buf, p...)
		buf = append(buf, 0)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
