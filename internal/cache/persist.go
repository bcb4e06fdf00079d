// persist.go is the cache's optional disk tier: review, retry-facts and
// dynamic entries written through as JSON files named by their key,
// read through on memory misses (facts, on every read). It is what
// makes warm re-analysis survive a process restart (the serving shape
// §4.3's per-run cost argues for) without any external storage — the
// expensive LLM tier, the cheap-but-restart-hot static extraction tier
// and the injection runs all replay from disk.
//
// Persistence is strictly best-effort: a failed write degrades to a
// recomputation (counted in cache_persist_errors_total), and an
// unreadable, truncated, version-mismatched or key-mismatched file is a
// miss — counted in cache_decode_errors_total and deleted, so one
// corrupt file can never poison the tier or fail twice. The directory
// is the durable tier, bounded by the same supersede rule as memory;
// its entry count and byte total are observable as cache_disk_entries /
// cache_disk_bytes, seeded by a scan at construction and maintained
// across stores and deletions.
package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"wasabi/internal/jsonread"
	"wasabi/internal/llm"
	"wasabi/internal/source"
)

// envelopeSchema identifies the on-disk review-entry format.
const envelopeSchema = "wasabi-review-cache/v1"

// entrySuffix names disk-tier entry files: <key>.json.
const entrySuffix = ".json"

// tempPrefix names the temp files storeDisk renames onto entries.
const tempPrefix = "tmp-"

// envelope is the persisted form of one review entry. The key is stored
// redundantly so a file renamed or copied to the wrong address fails
// closed. (Facts entries carry their own schema and content hash —
// sast.EncodeFacts — and need no extra wrapping; dynamic entries use
// dynamicEnvelope.)
type envelope struct {
	Schema string         `json:"schema"`
	Key    string         `json:"key"`
	Review llm.FileReview `json:"review"`
}

// encodeReview renders the envelope bytes stored in the disk tier.
func encodeReview(key string, rev llm.FileReview) ([]byte, error) {
	return json.Marshal(envelope{Schema: envelopeSchema, Key: key, Review: rev})
}

// decodeReview parses envelope bytes, verifying schema and key. It
// reads only the form encodeReview writes (package jsonread).
func decodeReview(data []byte, key string) (llm.FileReview, error) {
	var rev llm.FileReview
	err := decodeEnvelope(data, envelopeSchema, key, "review", func(r *jsonread.Reader) {
		r.String("File", &rev.File)
		jsonread.Int(r, "Size", &rev.Size)
		r.Bool("PerformsRetry", &rev.PerformsRetry)
		r.Bool("TruncatedContext", &rev.TruncatedContext)
		jsonread.Slice(r, "Findings", &rev.Findings, readFinding)
		r.Object("Spent")
		jsonread.Int(r, "Calls", &rev.Spent.Calls)
		jsonread.Int(r, "TokensIn", &rev.Spent.TokensIn)
		r.Float("CostUSD", &rev.Spent.CostUSD)
		r.Close()
		r.Bool("Degraded", &rev.Degraded)
		r.String("DegradedReason", &rev.DegradedReason)
	})
	if err != nil {
		return llm.FileReview{}, err
	}
	return rev, nil
}

func readFinding(r *jsonread.Reader, f *llm.Finding) {
	r.String("Coordinator", &f.Coordinator)
	r.String("File", &f.File)
	r.String("Mechanism", &f.Mechanism)
	r.Bool("SleepsBeforeRetry", &f.SleepsBeforeRetry)
	r.Bool("HasCap", &f.HasCap)
	r.Bool("PollOrSpin", &f.PollOrSpin)
	r.Bool("Hallucinated", &f.Hallucinated)
}

// decodeEnvelope reads `{"schema":…,"key":…,"<payload>":{…}}`, with
// members reading the payload's members. It fails closed on malformed
// bytes, and on a schema or key other than the wanted ones.
func decodeEnvelope(data []byte, schema, key, payload string, members func(*jsonread.Reader)) error {
	r := jsonread.New(data)
	r.Open()
	ok := r.Equal("schema", schema)
	ok = r.Equal("key", key) && ok
	r.Object(payload)
	members(&r)
	r.Close()
	r.Close()
	if err := r.Finish(); err != nil {
		return fmt.Errorf("cache: decode entry: %w", err)
	}
	if !ok {
		return fmt.Errorf("cache: entry schema/key mismatch (want schema %q)", schema)
	}
	return nil
}

// initDir creates the persistence directory when one is configured and
// seeds the disk-tier stats from its current contents, so a restarted
// process reports the tier it inherited. It removes the temp files of
// stores a killed process never renamed: the directory has one owner
// (docs/KNOWN_ISSUES.md), so no live store is writing them.
func (c *Cache) initDir() error {
	if c.dir == "" {
		return nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("cache: init dir: %w", err)
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("cache: scan dir: %w", err)
	}
	var n, size int64
	for _, e := range entries {
		switch {
		case e.IsDir():
			continue
		case strings.HasPrefix(e.Name(), tempPrefix):
			os.Remove(filepath.Join(c.dir, e.Name()))
			continue
		case !strings.HasSuffix(e.Name(), entrySuffix):
			continue
		}
		if info, err := e.Info(); err == nil {
			n++
			size += info.Size()
		}
	}
	c.accountDisk(n, size)
	return nil
}

// entryPath is the disk address of a key.
func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+entrySuffix)
}

// diskBufs pools the buffers loadDisk reads entries into. The decoders
// copy every string they keep (package jsonread), so a buffer is free
// again as soon as its entry is decoded.
var diskBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// loadDisk reads the persisted bytes for key into a pooled buffer, if
// the disk tier is enabled and has them (found), and returns what
// decode makes of them. Whatever comes back is untrusted: decode must
// fail closed, and callers dropDisk entries that do not verify. decode
// must not keep the bytes, which the next read reuses.
func (c *Cache) loadDisk(key string, decode func([]byte) (any, error)) (v any, found bool, err error) {
	if c.dir == "" {
		return nil, false, nil
	}
	buf := diskBufs.Get().(*[]byte)
	defer diskBufs.Put(buf)
	if *buf, err = source.ReadFile(c.entryPath(key), *buf); err != nil {
		return nil, false, nil
	}
	v, err = decode(*buf)
	return v, true, err
}

// storeDisk persists entry bytes via write-to-temp + rename, so readers
// never observe a torn file. Failures count, and are otherwise ignored.
func (c *Cache) storeDisk(key string, data []byte) {
	if c.dir == "" {
		return
	}
	tmp, err := os.CreateTemp(c.dir, tempPrefix+"*")
	if err == nil {
		_, err = tmp.Write(data)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = c.commitDisk(tmp.Name(), key, int64(len(data)))
		}
		if err != nil {
			os.Remove(tmp.Name())
		}
	}
	if err != nil {
		c.mu.Lock()
		c.persistErrors++
		c.mu.Unlock()
		c.reg.Counter("cache_persist_errors_total").Inc()
	}
}

// commitDisk renames a written temp file onto key's address and
// accounts for it. c.diskMu makes stat → rename → accounting one step,
// so concurrent stores of one key count its file once.
func (c *Cache) commitDisk(tmp, key string, size int64) error {
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	var oldSize, replaced int64
	if info, err := os.Stat(c.entryPath(key)); err == nil {
		oldSize, replaced = info.Size(), 1
	}
	if err := os.Rename(tmp, c.entryPath(key)); err != nil {
		return err
	}
	c.accountDisk(1-replaced, size-oldSize)
	return nil
}

// dropDisk deletes a disk entry that failed verification. Dropping is
// what turns a corrupt file into a one-time miss instead of a permanent
// decode error.
func (c *Cache) dropDisk(key string) {
	if c.removeDisk(key) {
		c.reg.Counter("cache_disk_drops_total").Inc()
	}
}

// removeDisk deletes key's disk entry, if there is one, keeping the
// tier stats exact (c.diskMu makes stat → remove → accounting one
// step). It reports whether a file was removed.
func (c *Cache) removeDisk(key string) bool {
	if c.dir == "" {
		return false
	}
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	path := c.entryPath(key)
	info, err := os.Stat(path)
	if err != nil {
		return false
	}
	if err := os.Remove(path); err != nil {
		return false
	}
	c.accountDisk(-1, -info.Size())
	return true
}

// accountDisk applies a change to the disk-tier stats and publishes
// them. Callers hold c.diskMu or are single-threaded construction.
func (c *Cache) accountDisk(entries, bytes int64) {
	c.mu.Lock()
	c.diskEntries += entries
	c.diskBytes += bytes
	c.reg.Gauge("cache_disk_entries").Set(float64(c.diskEntries))
	c.reg.Gauge("cache_disk_bytes").Set(float64(c.diskBytes))
	c.mu.Unlock()
}
