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
// stale entry leaves both tiers once newer versions of that input have
// been recorded (supersede).
//
// The dynamic stage memoises each app's dynamic run — its injection
// runs (§3.1.2) and oracle verdicts (§3.1.3) — keyed by the
// executable's build identity and the run inputs (dynamic.go), so a
// warm job against an unchanged build executes no test.
//
// Callers memoize through one call per stage — Analysis, Review and
// Dynamic — each of which derives its key and lineage, applies the
// stage's store rule and records the key on every path. The in-memory
// tier holds each review, analysis and dynamic entry's decoded value,
// and supersede is the only retention rule of both tiers: it keeps
// each lineage's newest versions, as the snapshot store keeps each
// path's (source.KeepNewest). Every hit returns that one shared value
// and decodes nothing. A value the cache stores or returns is
// therefore immutable: callers read it and copy before changing
// anything (report.Build sorts the positions of the dynamic reports,
// not the reports). An optional disk tier (Options.Dir) persists review,
// retry-facts and dynamic entries as JSON files, read through (and
// decoded fail-closed) on memory misses and written through on stores
// — a restarted daemon replays the expensive LLM tier, the static
// extraction tier and the injection runs from disk at zero parses and
// zero runs. Bytes exist only on that path. Whole-app
// analyses stay memory-only, and retry facts disk-only: their memory
// tier is the snapshot file's memo (source.File.MemoThrough).
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
// not usable; call New. A nil *Cache is valid: every method is
// nil-safe, and a nil cache memoizes nothing.
type Cache struct {
	dir string
	reg *obs.Registry

	mu     sync.Mutex // memory tier and every counter
	diskMu sync.Mutex // serialises disk-tier renames and removals with their accounting
	// entries is the memory tier: each key's shared decoded value.
	entries map[string]any
	// lineages holds each lineage's newest keys, oldest first, at most
	// source.DefaultKeepGenerations of them (supersede).
	lineages map[lineage][]string

	hits, misses map[string]int64 // by stage
	// hitCounters holds each stage's cache_hits_total series once a hit
	// has registered it, so a hit looks nothing up in the registry.
	hitCounters   map[string]*obs.Counter
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
		dir:         opts.Dir,
		reg:         opts.Metrics,
		entries:     make(map[string]any),
		lineages:    make(map[lineage][]string),
		hits:        make(map[string]int64),
		misses:      make(map[string]int64),
		hitCounters: make(map[string]*obs.Counter),
	}
	if err := c.initDir(); err != nil {
		return nil, err
	}
	return c, nil
}

// GetReview returns a copy of the memoized review under key; its
// Findings slice is the shared entry's, which callers must not mutate.
// Misses fall through to the disk tier when one is configured.
func (c *Cache) GetReview(key string) (llm.FileReview, bool) {
	if rev, ok := c.getReview(key); ok {
		return *rev, true
	}
	return llm.FileReview{}, false
}

// getReview returns the memoized review entry under key itself: every
// hit on one entry returns the same pointer, so what a caller derives
// from a review can be validated by the entry's identity.
func (c *Cache) getReview(key string) (*llm.FileReview, bool) {
	if c == nil {
		return nil, false
	}
	v, _ := c.get(StageReview, key, func(data []byte) (any, error) {
		rev, err := decodeReview(data, key)
		return &rev, err
	})
	rev, ok := v.(*llm.FileReview)
	return rev, ok
}

// PutReview memoizes a review under key, writing through to the disk
// tier when one is configured. The cache keeps rev itself, so neither
// the caller nor any later reader may mutate it. Degraded reviews must
// not be stored (they record a backend failure, not an answer); Review
// enforces that.
func (c *Cache) PutReview(key string, rev llm.FileReview) {
	if c == nil {
		return
	}
	// The scheduling facts are excluded from the envelope (json:"-"), so
	// a memory hit serves them zeroed exactly as a disk load does.
	rev.Retries, rev.Backend, rev.Shared = 0, "", false
	c.put(key, &rev, func() ([]byte, error) { return encodeReview(key, rev) })
}

// GetFacts returns the retry-facts entry for a content hash from the
// disk tier alone — the sast.FactsStore read side, which is what makes
// the static extraction tier survive a process restart. The entry is
// decoded fail-closed (format version and content hash verified): a
// corrupt one is a miss, deleted from disk, never an error. Without a
// disk tier it misses at once and counts nothing.
func (c *Cache) GetFacts(contentSHA256 string) (*sast.FileFacts, bool) {
	if c == nil || c.dir == "" {
		return nil, false
	}
	v, _ := c.read(StageFacts, factsKey(contentSHA256), func(data []byte) (any, error) {
		return sast.DecodeFacts(data, contentSHA256)
	})
	ff, ok := v.(*sast.FileFacts)
	return ff, ok
}

// PutFacts writes a retry-facts entry to the disk tier, if there is
// one — the sast.FactsStore write side. Best-effort like every store:
// an encode or persist failure degrades to recomputation, never to an
// analysis error.
func (c *Cache) PutFacts(contentSHA256 string, ff *sast.FileFacts) {
	if c == nil || ff == nil {
		return
	}
	c.persist(factsKey(contentSHA256), func() ([]byte, error) { return sast.EncodeFacts(ff) })
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
	c.install(key, a)
}

// Analysis returns snap's static analysis, memoized under its
// directory's content address (AnalysisKey over FromSnapshot's digest),
// which is derived once per snapshot (source.Snapshot.KeyThrough).
// A miss analyzes the snapshot with the disk tier as its facts tier, so
// a restarted process rebuilds the analysis at zero parses, and stores
// the result unless the analysis failed. The analysis key is recorded
// on every path, and after a fresh analysis every file's facts key too:
// a failed analysis has still stored the facts of the files it
// extracted before the failure. A nil cache analyzes afresh.
func (c *Cache) Analysis(snap *source.Snapshot) (*sast.Analysis, error) {
	if c == nil {
		return sast.AnalyzeSnapshot(snap)
	}
	key := snap.KeyThrough(AnalysisVersion, func() string { return AnalysisKey(snap.Dir, FromSnapshot(snap).Digest) })
	defer c.supersede(lineage{Stage: StageAnalysis, Scope: snap.Dir}, key)
	if a, ok := c.GetAnalysis(key); ok {
		return a, nil
	}
	a, err := sast.AnalyzeSnapshotWith(snap, c)
	for _, f := range snap.Files {
		c.supersede(lineage{Stage: StageFacts, Scope: f.Path}, factsKey(f.SHA256))
	}
	if err != nil {
		return nil, err
	}
	c.PutAnalysis(key, a, 0)
	return a, nil
}

// Review returns file's review under the client configuration
// fingerprint fp, and whether it was a hit. A hit returns the cache's
// entry itself, the same pointer on every hit until the entry is
// superseded; it is immutable. A miss returns what review computes,
// in a review of its own, and stores it unless it is degraded: a
// degraded review records a backend failure, not an answer, and
// storing one would pin the failure past the fault. The stored copy
// drops the routing facts (PutReview); the returned one keeps them. So
// an entry's pointer is never one a miss returned, and a value derived
// from reviews and validated by their pointers is never served for a
// degraded or recomputed review. The key is derived once per file
// version and fingerprint (source.File.KeyThrough) and recorded on
// every path. A nil cache runs review and reports a miss.
func (c *Cache) Review(fp string, file *source.File, review func() llm.FileReview) (*llm.FileReview, bool) {
	if c == nil {
		rev := review()
		return &rev, false
	}
	key := file.KeyThrough(fp, func() string { return ReviewKey(fp, file.Path, file.SHA256) })
	defer c.supersede(lineage{Stage: StageReview, Scope: file.Path, Config: fp}, key)
	if rev, ok := c.getReview(key); ok {
		return rev, true
	}
	rev := review()
	if !rev.Degraded {
		c.PutReview(key, rev)
	}
	return &rev, false
}

// get is the read side of the memory-backed stages. A memory hit
// returns the shared value and decodes nothing; on a miss, what read
// loads is installed.
func (c *Cache) get(stage, key string, decode func([]byte) (any, error)) (any, bool) {
	c.mu.Lock()
	if v, ok := c.entries[key]; ok {
		c.hits[stage]++
		hits := c.hitCounterLocked(stage)
		c.mu.Unlock()
		hits.Inc()
		return v, true
	}
	c.mu.Unlock()
	v, ok := c.read(stage, key, decode)
	if ok {
		c.install(key, v)
	}
	return v, ok
}

// read is the disk half of a lookup, counted as one hit or miss of
// stage. decode (nil for the memory-only analysis stage) verifies and
// unpacks the disk tier's bytes fail-closed: a file that does not
// decode is counted, dropped and read as a miss.
func (c *Cache) read(stage, key string, decode func([]byte) (any, error)) (any, bool) {
	if decode != nil {
		if v, found, err := c.loadDisk(key, decode); found {
			if err == nil {
				c.mu.Lock()
				c.diskLoads++
				c.hits[stage]++
				hits := c.hitCounterLocked(stage)
				c.mu.Unlock()
				hits.Inc()
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

// hitCounterLocked returns stage's cache_hits_total series, looking it
// up in the registry only on the stage's first hit. Called with c.mu
// held.
func (c *Cache) hitCounterLocked(stage string) *obs.Counter {
	h, ok := c.hitCounters[stage]
	if !ok {
		h = c.reg.Counter("cache_hits_total", "stage", stage)
		c.hitCounters[stage] = h
	}
	return h
}

// put is the write side of the review and dynamic stages: v is written
// through (persist) and, unless its encoding failed, installed.
func (c *Cache) put(key string, v any, encode func() ([]byte, error)) {
	if c.persist(key, encode) {
		c.install(key, v)
	}
}

// persist writes encode's bytes through to the disk tier, if there is
// one; without one, nothing is encoded. An encode failure is counted,
// stores nothing and reports false.
func (c *Cache) persist(key string, encode func() ([]byte, error)) bool {
	if c.dir == "" {
		return true
	}
	data, err := encode()
	if err != nil {
		c.reg.Counter("cache_decode_errors_total").Inc()
		return false
	}
	c.storeDisk(key, data)
	return true
}

// install inserts or replaces key's value in the memory tier.
func (c *Cache) install(key string, v any) {
	c.mu.Lock()
	c.entries[key] = v
	c.setOccupancy()
	c.mu.Unlock()
}

// setOccupancy publishes the memory tier's size. Called with c.mu held.
func (c *Cache) setOccupancy() {
	c.reg.Gauge("cache_entries").Set(float64(len(c.entries)))
}

// lineage names entries that replace one another as their input
// changes: one file's reviews under one configuration, one file's
// facts, one directory's analyses, or one app's dynamic runs under one
// build, suite and set of run options (dynamicLineage).
type lineage struct {
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

// supersede records key as the newest entry of lineage l and drops the
// lineage's entries older than its newest
// source.DefaultKeepGenerations, by source.KeepNewest, the rule by which
// the snapshot store evicts a path's old content versions. It is the
// only retention rule of both tiers: a dropped key leaves memory, and
// with a disk tier its file is removed too (a facts key has only that
// file), so a long-lived daemon holds at most that many entries per
// lineage it has seen, in memory and on disk. A dropped entry is only
// ever recomputed, never served wrong, and that is the whole cost of
// the rule's trades:
//
//   - reverting an input more than K versions back recomputes it (a
//     review is paid for again);
//   - keys recorded by a previous process are on no lineage, so each
//     restart can strand up to K old versions per lineage on disk;
//   - a facts file shared by two paths with equal content can be
//     removed by either path's lineage;
//   - a file removed just after a concurrent job stored it again
//     leaves that entry in memory only.
//
// Analysis, Review and Dynamic record a key after its lookup, and after
// its store when the lookup missed, on every return path. A key
// recorded first could be superseded by a concurrent job before its
// store installs the entry, which would then sit in memory on no
// lineage; recorded afterwards, it is back on its lineage, and any
// later drop removes it. Recording a key that is already the newest,
// or the empty key, does nothing.
func (c *Cache) supersede(l lineage, key string) {
	if c == nil || key == "" {
		return
	}
	c.mu.Lock()
	keys, dropped := source.KeepNewest(c.lineages[l], key)
	c.lineages[l] = keys
	for _, k := range dropped {
		if _, ok := c.entries[k]; ok {
			delete(c.entries, k)
			c.reg.Counter("cache_superseded_total").Inc()
		}
	}
	if len(dropped) > 0 {
		c.setOccupancy()
	}
	c.mu.Unlock()
	for _, k := range dropped {
		c.removeDisk(k)
	}
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
