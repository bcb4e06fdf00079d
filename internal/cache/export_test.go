package cache

import (
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
	for key, el := range c.entries {
		var data []byte
		var err error
		switch v := el.Value.(*entry).val.(type) {
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
