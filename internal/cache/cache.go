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
// newer versions of that input, or when it ages out of the LRU.
//
// The dynamic stage memoises each app's dynamic run — its injection
// runs (§3.1.2) and oracle verdicts (§3.1.3) — keyed by the
// executable's build identity and the run inputs (dynamic.go), so a
// warm job against an unchanged build executes no test.
//
// The in-memory tier holds each entry's decoded value under a byte
// budget with LRU eviction, costed at its encoded size (estimated
// without encoding when no disk tier will write it); every hit returns
// that one shared value and decodes nothing. A value passed to a Put*
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
	"container/list"
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

// DefaultMaxBytes is the in-memory byte budget when Options.MaxBytes is
// unset: comfortably above one full-corpus run (~1 MB of encoded
// reviews) while bounding a long-lived daemon.
const DefaultMaxBytes = 64 << 20

// Options configures a cache.
type Options struct {
	// MaxBytes is the in-memory byte budget; entries are evicted in LRU
	// order once the total estimated cost exceeds it. Zero or negative
	// means DefaultMaxBytes.
	MaxBytes int64
	// Dir, when non-empty, enables the disk tier: review entries are
	// persisted as JSON files in this directory and survive process
	// restarts. The directory is created if missing.
	Dir string
	// Metrics, when non-nil, receives the cache_* counters and gauges
	// (docs/OBSERVABILITY.md).
	Metrics *obs.Registry
}

// Cache is a content-addressed, byte-budgeted memoization store. The
// zero value is not usable; call New. A nil *Cache is valid everywhere
// in internal/core and disables memoization.
type Cache struct {
	maxBytes int64
	dir      string
	reg      *obs.Registry

	mu      sync.Mutex // memory tier and every counter
	diskMu  sync.Mutex // serialises disk-tier renames and removals with their accounting
	bytes   int64
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	// lineages holds each lineage's newest keys, oldest first, at most
	// source.DefaultKeepGenerations of them (Supersede).
	lineages map[Lineage][]string

	hits, misses  map[string]int64 // by stage
	evictions     int64
	diskLoads     int64
	persistErrors int64
	diskEntries   int64 // disk-tier entry files
	diskBytes     int64 // disk-tier byte total
}

// entry is one cached artifact: the value every hit shares, costed at
// its encoded size, or an estimate of it when nothing encodes it
// (analyses at their caller's estimate).
type entry struct {
	key   string
	stage string
	val   any
	cost  int64
}

// New returns a cache with the given options. With Options.Dir set, the
// directory is created eagerly so persistence failures surface at
// construction rather than mid-run.
func New(opts Options) (*Cache, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	c := &Cache{
		maxBytes: opts.MaxBytes,
		dir:      opts.Dir,
		reg:      opts.Metrics,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		lineages: make(map[Lineage][]string),
		hits:     make(map[string]int64),
		misses:   make(map[string]int64),
	}
	if err := c.initDir(); err != nil {
		return nil, err
	}
	c.reg.Gauge("cache_max_bytes").Set(float64(c.maxBytes))
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
	c.put(StageReview, key, rev, reviewCost(key, rev), func() ([]byte, error) { return encodeReview(key, rev) })
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
	c.put(StageFacts, FactsKey(contentSHA256), ff, factsCost(ff), func() ([]byte, error) { return sast.EncodeFacts(ff) })
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
// itself, so it must not be mutated afterwards. cost estimates the
// entry's memory footprint (callers pass the analyzed directory's source
// byte total). Analyses stay memory-only: they are a cheap cross-file
// merge whose per-file inputs already persist as facts entries, so a
// restarted process rebuilds them from disk without parsing.
func (c *Cache) PutAnalysis(key string, a *sast.Analysis, cost int64) {
	if c == nil || a == nil {
		return
	}
	c.mu.Lock()
	c.install(&entry{key: key, stage: StageAnalysis, val: a, cost: max(cost, 1)})
	c.mu.Unlock()
}

// get is the read side of every stage. A memory hit returns the shared
// value and decodes nothing. On a memory miss, decode (nil for the
// memory-only analysis stage) verifies and unpacks the disk tier's
// bytes fail-closed: a file that does not decode is counted, dropped
// and read as a miss.
func (c *Cache) get(stage, key string, decode func([]byte) (any, error)) (any, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*entry).val
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
				c.install(&entry{key: key, stage: stage, val: v, cost: int64(len(data))})
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
// encode renders v, the bytes are written through, and v is installed
// in memory at their length; an encode failure is counted and stores
// nothing. Without one, nothing is encoded: v is installed at cost, the
// caller's estimate of that length.
func (c *Cache) put(stage, key string, v any, cost int64, encode func() ([]byte, error)) {
	if c.dir != "" {
		data, err := encode()
		if err != nil {
			c.reg.Counter("cache_decode_errors_total").Inc()
			return
		}
		c.storeDisk(key, data)
		cost = int64(len(data))
	}
	c.mu.Lock()
	c.install(&entry{key: key, stage: stage, val: v, cost: cost})
	c.mu.Unlock()
}

// install inserts or replaces the entry and evicts LRU entries until the
// byte budget holds again. Called with c.mu held. An entry larger than
// the whole budget is evicted immediately after insertion — effectively
// never cached, but accounted honestly.
func (c *Cache) install(e *entry) {
	if el, ok := c.entries[e.key]; ok {
		old := el.Value.(*entry)
		c.bytes += e.cost - old.cost
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.entries[e.key] = c.ll.PushFront(e)
		c.bytes += e.cost
	}
	for c.bytes > c.maxBytes && c.ll.Len() > 0 {
		c.remove(c.ll.Back())
		c.evictions++
		c.reg.Counter("cache_evictions_total").Inc()
	}
	c.setOccupancy()
}

// remove drops one memory-tier entry. Called with c.mu held.
func (c *Cache) remove(el *list.Element) {
	victim := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, victim.key)
	c.bytes -= victim.cost
}

// setOccupancy publishes the memory tier's size. Called with c.mu held.
func (c *Cache) setOccupancy() {
	c.reg.Gauge("cache_bytes").Set(float64(c.bytes))
	c.reg.Gauge("cache_entries").Set(float64(c.ll.Len()))
}

// Lineage names entries that replace one another as their input
// changes: one file's reviews under one configuration, one file's
// facts, one directory's analyses.
type Lineage struct {
	// Stage is the entries' stage (StageReview, StageFacts,
	// StageAnalysis).
	Stage string
	// Scope is the input's path: the file, or the analyzed directory.
	Scope string
	// Config is the review configuration fingerprint; empty for the
	// other stages.
	Config string
}

// Supersede records key as the newest entry of lineage l and drops
// from the memory tier the lineage's entries older than its newest
// source.DefaultKeepGenerations, the rule by which the snapshot store
// evicts a path's old content versions. The disk tier keeps them, so a
// reverted input still hits there, and a dropped entry is only ever
// recomputed, never served wrong. Without it, a daemon whose files keep
// changing fills the byte budget with entries for versions it no longer
// holds. Recording a key that is already the newest does nothing.
func (c *Cache) Supersede(l Lineage, key string) {
	if c == nil {
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
			if el, ok := c.entries[k]; ok {
				c.remove(el)
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
	Bytes         int64            `json:"bytes"`
	MaxBytes      int64            `json:"max_bytes"`
	Hits          map[string]int64 `json:"hits"`
	Misses        map[string]int64 `json:"misses"`
	Evictions     int64            `json:"evictions"`
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
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	s.MaxBytes = c.maxBytes
	for k, v := range c.hits {
		s.Hits[k] = v
	}
	for k, v := range c.misses {
		s.Misses[k] = v
	}
	s.Evictions = c.evictions
	s.DiskLoads = c.diskLoads
	s.PersistErrors = c.persistErrors
	s.DiskEntries = c.diskEntries
	s.DiskBytes = c.diskBytes
	return s
}
