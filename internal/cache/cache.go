// Package cache is the content-addressed analysis cache behind
// WASABI-as-a-service: it memoizes the expensive per-file LLM reviews
// (§3.1.1 technique 2, §3.2.1 — the paper's ~2,600 GPT-4 calls and ~$8
// per app per run, §4.3) and the per-app static analyses (§3.1.1
// technique 1) across pipeline runs, so re-analyzing a corpus whose
// files have not changed spends zero LLM tokens and re-analyzing after
// touching one file re-reviews only that file.
//
// Entries are addressed by content, not by time: a review key is derived
// from the file's path, its content hash and the client's prompt/config
// fingerprint (llm.Config.Fingerprint), an analysis key from the
// directory's manifest digest (FromSnapshot) — see keys.go and
// docs/SERVICE.md for the exact derivations. There is no TTL and no
// explicit invalidation API; changing an input changes its key, and the
// stale entry leaves the memory tier once Supersede has recorded
// newer versions of that input.
//
// The dynamic stage memoises each app's dynamic run — its injection
// runs (§3.1.2) and oracle verdicts (§3.1.3) — keyed by the
// executable's build identity and the run inputs (dynamic.go), so a
// warm job against an unchanged build executes no test.
//
// The in-memory tier holds each entry's decoded value, and Supersede is
// its only retention rule: it keeps each lineage's newest versions, as
// the snapshot store keeps each path's. Every hit returns that one
// shared value and decodes nothing. A value passed to a Put*
// method or returned by a Get* method is therefore immutable: callers
// read it and copy before changing anything (report.Build copies the
// dynamic reports before sorting them). An optional disk tier
// (Options.Dir) persists review, retry-facts and dynamic entries as JSON
// files, read through (and decoded fail-closed) on memory misses and
// written through on stores — a restarted daemon replays the expensive
// LLM tier, the static extraction tier and the injection runs from disk
// at zero parses and zero runs. Bytes exist only on that path. Whole-app
// analyses are a cheap in-memory merge of facts and stay memory-only.
// All operations are goroutine-safe; hit/miss counts are deterministic
// functions of the logical access sequence, so pipeline tests can assert
// them exactly.
package cache

import (
	"sync"

	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/sast"
	"wasabi/internal/source"
)

// Stage names used in metrics labels and Stats maps: one per cached
// artifact kind.
const (
	// StageReview marks per-file LLM review entries.
	StageReview = "review"
	// StageAnalysis marks per-app static analysis entries.
	StageAnalysis = "analysis"
	// StageFacts marks per-file retry-facts entries (sast.FileFacts, the
	// portable static-extraction artifacts).
	StageFacts = "facts"
	// StageDynamic marks per-app dynamic-run entries (DynamicRun, the
	// outcome of one app's injection runs under one build).
	StageDynamic = "dynamic"
)

// Options configures a cache.
type Options struct {
	// Dir, when non-empty, enables the disk tier: review entries are
	// persisted as JSON files in this directory and survive process
	// restarts. The directory is created if missing.
	Dir string
	// Metrics, when non-nil, receives the cache_* counters and gauges
	// (docs/OBSERVABILITY.md).
	Metrics *obs.Registry
}

// Cache is a content-addressed memoization store. The zero value is
// not usable; call New. A nil *Cache is valid everywhere in
// internal/core and disables memoization.
type Cache struct {
	dir string
	reg *obs.Registry

	mu     sync.Mutex // memory tier and every counter
	diskMu sync.Mutex // serialises disk-tier renames and removals with their accounting
	// entries is the memory tier: each key's shared decoded value.
	entries map[string]any
	// lineages holds each lineage's newest keys, oldest first, at most
	// source.DefaultKeepGenerations of them (Supersede).
	lineages map[Lineage][]string

	hits, misses  map[string]int64 // by stage
	diskLoads     int64
	persistErrors int64
	diskEntries   int64 // disk-tier entry files
	diskBytes     int64 // disk-tier byte total
}

// New returns a cache with the given options. With Options.Dir set, the
// directory is created eagerly so persistence failures surface at
// construction rather than mid-run.
func New(opts Options) (*Cache, error) {
	c := &Cache{
		dir:      opts.Dir,
		reg:      opts.Metrics,
		entries:  make(map[string]any),
		lineages: make(map[Lineage][]string),
		hits:     make(map[string]int64),
		misses:   make(map[string]int64),
	}
	if err := c.initDir(); err != nil {
		return nil, err
	}
	return c, nil
}

// GetReview returns the memoized review under key. Every hit returns
// the same shared value, which callers must not mutate (its Findings
// slice included). Misses fall through to the disk tier when one is
// configured.
func (c *Cache) GetReview(key string) (llm.FileReview, bool) {
	if c == nil {
		return llm.FileReview{}, false
	}
	v, _ := c.get(StageReview, key, func(data []byte) (any, error) { return decodeReview(data, key) })
	rev, ok := v.(llm.FileReview)
	return rev, ok
}

// PutReview memoizes a review under key, writing through to the disk
// tier when one is configured. The cache keeps rev itself, so neither
// the caller nor any later reader may mutate it. Degraded reviews must
// not be stored (they record a backend failure, not an answer); callers
// enforce that.
func (c *Cache) PutReview(key string, rev llm.FileReview) {
	if c == nil {
		return
	}
	// The scheduling facts are excluded from the envelope (json:"-"), so
	// a memory hit serves them zeroed exactly as a disk load does.
	rev.Retries, rev.Backend, rev.Shared = 0, "", false
	c.put(key, rev, func() ([]byte, error) { return encodeReview(key, rev) })
}

// GetFacts returns the retry-facts entry for a content hash — the
// sast.FactsStore read side. Every hit returns the same shared
// *FileFacts, which callers must not mutate; misses fall through to the
// disk tier, which is what makes the static extraction tier survive a
// process restart. A disk entry is decoded fail-closed (format version
// and content hash verified): a corrupt one is a miss, deleted from
// disk, never an error.
func (c *Cache) GetFacts(contentSHA256 string) (*sast.FileFacts, bool) {
	if c == nil {
		return nil, false
	}
	v, _ := c.get(StageFacts, FactsKey(contentSHA256), func(data []byte) (any, error) {
		return sast.DecodeFacts(data, contentSHA256)
	})
	ff, ok := v.(*sast.FileFacts)
	return ff, ok
}

// PutFacts memoizes a retry-facts entry, writing through to the disk
// tier — the sast.FactsStore write side. The cache keeps ff itself, so
// it must not be mutated afterwards. Best-effort like every store: an
// encode or persist failure degrades to recomputation, never to an
// analysis error.
func (c *Cache) PutFacts(contentSHA256 string, ff *sast.FileFacts) {
	if c == nil || ff == nil {
		return
	}
	c.put(FactsKey(contentSHA256), ff, func() ([]byte, error) { return sast.EncodeFacts(ff) })
}

// GetAnalysis returns the memoized static analysis under key. Every hit
// returns the same shared pointer, which callers must not mutate
// (internal/core and internal/sast only ever read a finished Analysis).
func (c *Cache) GetAnalysis(key string) (*sast.Analysis, bool) {
	if c == nil {
		return nil, false
	}
	v, _ := c.get(StageAnalysis, key, nil)
	a, ok := v.(*sast.Analysis)
	return a, ok
}

// PutAnalysis memoizes a static analysis under key; the cache keeps a
// itself, so it must not be mutated afterwards. Analyses stay
// memory-only: they are a cheap cross-file merge whose per-file inputs
// already persist as facts entries, so a restarted process rebuilds
// them from disk without parsing. The third parameter is unused; it is
// kept while the benchmark's replay (bench/replay.go) still calls this
// method with it.
func (c *Cache) PutAnalysis(key string, a *sast.Analysis, _ int64) {
	if c == nil || a == nil {
		return
	}
	c.mu.Lock()
	c.install(key, a)
	c.mu.Unlock()
}

// get is the read side of every stage. A memory hit returns the shared
// value and decodes nothing. On a memory miss, decode (nil for the
// memory-only analysis stage) verifies and unpacks the disk tier's
// bytes fail-closed: a file that does not decode is counted, dropped
// and read as a miss.
func (c *Cache) get(stage, key string, decode func([]byte) (any, error)) (any, bool) {
	c.mu.Lock()
	if v, ok := c.entries[key]; ok {
		c.hits[stage]++
		c.mu.Unlock()
		c.reg.Counter("cache_hits_total", "stage", stage).Inc()
		return v, true
	}
	c.mu.Unlock()
	if decode != nil {
		if data, ok := c.loadDisk(key); ok {
			if v, err := decode(data); err == nil {
				c.mu.Lock()
				c.diskLoads++
				c.hits[stage]++
				c.install(key, v)
				c.mu.Unlock()
				c.reg.Counter("cache_hits_total", "stage", stage).Inc()
				c.reg.Counter("cache_disk_loads_total").Inc()
				return v, true
			}
			// A truncated, corrupt or version-mismatched disk entry is a
			// miss, and the poisoned file is dropped so it cannot fail again.
			c.reg.Counter("cache_decode_errors_total").Inc()
			c.dropDisk(key)
		}
	}
	c.mu.Lock()
	c.misses[stage]++
	c.mu.Unlock()
	c.reg.Counter("cache_misses_total", "stage", stage).Inc()
	return nil, false
}

// put is the write side of every disk-backed stage. With a disk tier,
// encode renders v and the bytes are written through; an encode failure
// is counted and stores nothing. Without one, nothing is encoded. Then
// v is installed in memory.
func (c *Cache) put(key string, v any, encode func() ([]byte, error)) {
	if c.dir != "" {
		data, err := encode()
		if err != nil {
			c.reg.Counter("cache_decode_errors_total").Inc()
			return
		}
		c.storeDisk(key, data)
	}
	c.mu.Lock()
	c.install(key, v)
	c.mu.Unlock()
}

// install inserts or replaces key's value. Called with c.mu held.
func (c *Cache) install(key string, v any) {
	c.entries[key] = v
	c.setOccupancy()
}

// setOccupancy publishes the memory tier's size. Called with c.mu held.
func (c *Cache) setOccupancy() {
	c.reg.Gauge("cache_entries").Set(float64(len(c.entries)))
}

// Lineage names entries that replace one another as their input
// changes: one file's reviews under one configuration, one file's
// facts, one directory's analyses, or one app's dynamic runs under one
// build, suite and set of run options (DynamicLineage).
type Lineage struct {
	// Stage is the entries' stage (StageReview, StageFacts,
	// StageAnalysis, StageDynamic).
	Stage string
	// Scope is the input's path (the file, or the analyzed directory),
	// or the app code for dynamic runs.
	Scope string
	// Config is the review configuration fingerprint, or the digest of a
	// dynamic run's other inputs; empty for the other stages.
	Config string
}

// Supersede records key as the newest entry of lineage l and drops
// from the memory tier the lineage's entries older than its newest
// source.DefaultKeepGenerations, the rule by which the snapshot store
// evicts a path's old content versions. It is the memory tier's only
// retention rule, so a long-lived daemon holds at most that many
// entries per lineage it has seen. The disk tier keeps dropped entries,
// so a reverted input still hits there, and a dropped entry is only
// ever recomputed, never served wrong.
//
// Callers record a key after its Get, and after its Put when the Get
// missed, on every return path. A key recorded first could be
// superseded by a concurrent job before its Put installs the entry,
// which would then sit in memory on no lineage; recorded afterwards, it
// is back on its lineage, and any later drop removes it. Recording a key
// that is already the newest, or the empty key, does nothing.
func (c *Cache) Supersede(l Lineage, key string) {
	if c == nil || key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.lineages[l]
	if n := len(keys); n > 0 && keys[n-1] == key {
		return
	}
	for i, k := range keys {
		if k == key {
			keys = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	keys = append(keys, key)
	if drop := len(keys) - source.DefaultKeepGenerations; drop > 0 {
		for _, k := range keys[:drop] {
			if _, ok := c.entries[k]; ok {
				delete(c.entries, k)
				c.reg.Counter("cache_superseded_total").Inc()
			}
		}
		keys = append(keys[:0], keys[drop:]...)
		c.setOccupancy()
	}
	c.lineages[l] = keys
}

// Stats is a deterministic point-in-time summary of the cache: maps
// marshal with sorted keys, so equal states render equal JSON.
type Stats struct {
	Entries       int              `json:"entries"`
	Hits          map[string]int64 `json:"hits"`
	Misses        map[string]int64 `json:"misses"`
	DiskLoads     int64            `json:"disk_loads"`
	PersistErrors int64            `json:"persist_errors"`
	// DiskEntries / DiskBytes describe the disk tier: entry-file count
	// and byte total, seeded by a directory scan at construction and
	// maintained across stores and corrupt-entry deletions.
	DiskEntries int64 `json:"disk_entries"`
	DiskBytes   int64 `json:"disk_bytes"`
}

// Totals sums hits and misses over every stage.
func (s Stats) Totals() (hits, misses int64) {
	for _, n := range s.Hits {
		hits += n
	}
	for _, n := range s.Misses {
		misses += n
	}
	return hits, misses
}

// Stats snapshots the cache counters. Nil-safe: a nil cache reports the
// zero Stats (with non-nil maps, so it still marshals stably).
func (c *Cache) Stats() Stats {
	s := Stats{Hits: map[string]int64{}, Misses: map[string]int64{}}
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Entries = len(c.entries)
	for k, v := range c.hits {
		s.Hits[k] = v
	}
	for k, v := range c.misses {
		s.Misses[k] = v
	}
	s.DiskLoads = c.diskLoads
	s.PersistErrors = c.persistErrors
	s.DiskEntries = c.diskEntries
	s.DiskBytes = c.diskBytes
	return s
}
