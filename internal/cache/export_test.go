package cache

import (
	"sort"

	"wasabi/internal/llm"
	"wasabi/internal/sast"
)

// EncodedEntries re-encodes every disk-backed memory-tier value into the
// bytes its stage writes to disk, by key. A value no caller has mutated
// re-encodes to exactly its disk entry.
func (c *Cache) EncodedEntries() (map[string][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]byte, len(c.entries))
	for key, val := range c.entries {
		var data []byte
		var err error
		switch v := val.(type) {
		case llm.FileReview:
			data, err = encodeReview(key, v)
		case *sast.FileFacts:
			data, err = sast.EncodeFacts(v)
		case DynamicRun:
			data, err = encodeDynamic(key, v)
		default: // analyses are memory-only
			continue
		}
		if err != nil {
			return nil, err
		}
		out[key] = data
	}
	return out, nil
}

// EntryPath is the disk address of key.
func (c *Cache) EntryPath(key string) string { return c.entryPath(key) }

// UntrackedEntries lists the memory-tier keys that no lineage holds:
// entries Supersede can never drop.
func (c *Cache) UntrackedEntries() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	tracked := make(map[string]bool)
	for _, keys := range c.lineages {
		for _, k := range keys {
			tracked[k] = true
		}
	}
	var out []string
	for k := range c.entries {
		if !tracked[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
