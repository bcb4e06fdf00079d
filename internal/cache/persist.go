// persist.go is the cache's optional disk tier: review, retry-facts and
// dynamic entries written through as JSON files named by their key,
// read through on memory misses. It is what makes warm re-analysis
// survive a process restart (the serving shape §4.3's per-run cost
// argues for) without any external storage dependency — the expensive
// LLM tier, the cheap-but-restart-hot static extraction tier and the
// injection runs all replay from disk.
//
// Persistence is strictly best-effort: a failed write degrades to a
// recomputation (counted in cache_persist_errors_total), and an
// unreadable, truncated, version-mismatched or key-mismatched file is a
// miss — counted in cache_decode_errors_total and deleted, so one
// corrupt file can never poison the tier or fail twice. The directory
// is the durable tier; its entry count and byte total are observable as
// cache_disk_entries / cache_disk_bytes, seeded by a scan at
// construction and maintained across stores and deletions.
package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wasabi/internal/llm"
)

// envelopeSchema identifies the on-disk review-entry format.
const envelopeSchema = "wasabi-review-cache/v1"

// entrySuffix names disk-tier entry files: <key>.json.
const entrySuffix = ".json"

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

// decodeReview parses envelope bytes, verifying schema and key.
func decodeReview(data []byte, key string) (llm.FileReview, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return llm.FileReview{}, fmt.Errorf("cache: decode entry: %w", err)
	}
	if env.Schema != envelopeSchema || env.Key != key {
		return llm.FileReview{}, fmt.Errorf("cache: entry schema/key mismatch (schema %q)", env.Schema)
	}
	return env.Review, nil
}

// initDir creates the persistence directory when one is configured and
// seeds the disk-tier stats from its current contents, so a restarted
// process reports the tier it inherited.
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
		if e.IsDir() || !strings.HasSuffix(e.Name(), entrySuffix) {
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

// loadDisk reads the persisted bytes for key, if the disk tier is
// enabled and has them. Whatever comes back is untrusted: callers must
// decode fail-closed and dropDisk entries that do not verify.
func (c *Cache) loadDisk(key string) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(c.entryPath(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// storeDisk persists entry bytes via write-to-temp + rename, so readers
// never observe a torn file. Failures count, and are otherwise ignored.
func (c *Cache) storeDisk(key string, data []byte) {
	if c.dir == "" {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
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

// dropDisk deletes a disk entry that failed verification, keeping the
// tier stats exact (c.diskMu makes stat → remove → accounting one step).
// Dropping is what turns a corrupt file into a one-time miss instead of
// a permanent decode error.
func (c *Cache) dropDisk(key string) {
	if c.dir == "" {
		return
	}
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	path := c.entryPath(key)
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	if err := os.Remove(path); err != nil {
		return
	}
	c.accountDisk(-1, -info.Size())
	c.reg.Counter("cache_disk_drops_total").Inc()
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
