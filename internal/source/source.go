// Package source is the parse-once snapshot store behind every static
// consumer of corpus bytes. The pipeline's stages are independent by
// design — traditional static analysis, LLM fuzzy comprehension, and
// content-addressed cache keying each interpret the same files (the
// paper's §3.1.1 techniques and the §4.3 cost model price them
// separately) — but that independence used to be paid on the hot path:
// every file was read from disk and parsed into an AST up to three
// times per run. A Store loads each file exactly once per run and
// interns the loaded artifact — (bytes, sha256, and a token.FileSet of
// its own for positions) — by (path, content hash), so a warm daemon
// re-parses only files whose bytes actually changed.
//
// Loading reads each file into a pooled buffer and hashes it there; a
// File owns a copy of its bytes, made only when its content version is
// new. No File ever aliases a pooled buffer.
//
// A warm load of an unchanged file reads nothing at all: the store asks
// the kernel what changed instead of looking. From a directory's second
// load on (a process that loads it once has no use for a watch), a load
// arms an inotify watch on it before listing it, on the process's one
// inotify instance, bound to the directory's (device, inode). Each read
// of a file then leaves a record of the version it interned, and each
// listing a record of the directory's source files. Every load
// first drains the queued events, stamping what they name with a new
// sequence number, and stats the directory alone, to check that its
// path still leads to the watched directory. A record stays current,
// and serves the load without reading, while no event has named its
// file (for a listing: no child was created, deleted or renamed) since
// the drain before its read, and the watch has neither gone nor
// overflowed. The kernel queues an event before the write that caused
// it returns, so a finished write is seen by the next load. Where no
// watch can be armed (outside Linux, past the watch limit, on a network
// or FUSE file system), and for a file with more than one link or
// reached through a symbolic link, which can be written through another
// directory without an event here, no record is kept and every load
// reads and hashes the file. Everything downstream keys on the SHA-256
// of the bytes last read (docs/KNOWN_ISSUES.md lists what the watch
// cannot see).
//
// Parsing is lazy: interning a file costs a read and a hash, and the
// AST is built only when a consumer actually asks for it via
// File.Syntax. That is what lets a restart-warm daemon serve an entire
// job at zero parses — the static tier hydrates its extraction facts
// from the disk cache (File.MemoThrough) and the LLM reviews replay
// from the review cache, so nothing ever touches go/ast.
//
// Consumers receive a Snapshot: the directory's source files in sorted
// order, fully loaded. Files are immutable once interned; internal/sast's
// retry facts piggyback on the same content addressing through
// File.MemoThrough, their only memory tier, which is what makes the
// static tier file-granular and incremental.
//
// Retention is bounded per path (KeepNewest): the store keeps the latest
// DefaultKeepGenerations content versions of each path and evicts older
// generations — bytes, AST, positions and memoized facts together — so
// a long-lived daemon's memory plateaus under an endless edit history
// (source_evictions_total / source_retained_bytes account for it).
// Evicted versions stay valid in any snapshot still holding them (Files
// are immutable); re-loading one simply re-interns and recomputes.
//
// Concurrency: a Store is safe for concurrent Load calls across worker
// lanes. Parsing is serialized per File by a sync.Once, and each File
// parses into its own token.FileSet, so concurrent parses share no
// position table; a File's bytes and AST are never mutated after
// interning, so concurrent readers need no locking.
// All source_* metrics (docs/OBSERVABILITY.md) count logical events and
// are deterministic across worker counts.
package source

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"wasabi/internal/obs"
)

// DefaultKeepGenerations is how many content versions of one path a
// Store retains. Two covers the daemon's steady state — the
// version in flight plus the edit that just landed — while bounding
// memory under a long edit history.
const DefaultKeepGenerations = 2

// IsSourceFile reports whether a directory entry counts as application
// source for the static workflows. Tests are excluded; suite.go and
// workload.go hold an app's registered unit tests and manifest.go the
// evaluation ground truth — none of them is application source. Every
// consumer of a Snapshot (sast, llm review keying, cache manifests)
// shares this predicate, so content addresses cover exactly the files
// analyzed.
func IsSourceFile(name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	return name != "suite.go" && name != "workload.go" && name != "manifest.go"
}

// File is one loaded source file: bytes and content address computed at
// intern time, the AST built lazily on first Syntax call. Fields are
// immutable after interning; concurrent readers share them freely.
type File struct {
	// Name is the file basename.
	Name string
	// Path is the full path the file was loaded from.
	Path string
	// Bytes is the raw file content, owned by the File.
	Bytes []byte
	// SHA256 is the lowercase hex SHA-256 of Bytes — the content address
	// review keys, directory manifests and facts entries derive from.
	SHA256 string
	// Size is len(Bytes) as an int64 (the manifest shape).
	Size int64
	// Fset resolves the positions of this version's AST. Each File owns
	// its FileSet, so evicting the version frees its line table with it.
	Fset *token.FileSet

	store *Store

	parseOnce sync.Once
	syntax    *ast.File
	parseErr  error

	mu   sync.Mutex
	memo any // the derived artifact (MemoThrough)

	key keyMemo // the review cache key (KeyThrough)
}

// KeyThrough returns the key derive gives the file under config,
// calling derive only when the file's last key was derived under
// another config: a file version keeps one key, so a daemon whose
// config does not change derives each file's key (the review cache
// key) once however many jobs load it. derive must be a pure function
// of the file's content and path and of config.
func (f *File) KeyThrough(config string, derive func() string) string {
	return f.key.through(config, derive)
}

// keyMemo holds the last key derived from an immutable value and the
// configuration it was derived under.
type keyMemo struct{ last atomic.Pointer[derivedKey] }

type derivedKey struct{ config, key string }

func (m *keyMemo) through(config string, derive func() string) string {
	if k := m.last.Load(); k != nil && k.config == config {
		return k.key
	}
	k := &derivedKey{config: config, key: derive()}
	m.last.Store(k)
	return k.key
}

// Syntax returns the parsed AST, building it on first call (counted in
// source_parse_total) and memoizing both the tree and any parse error
// for the file's lifetime. The parse keeps comments and skips object
// resolution: no consumer reads ast.Ident.Obj, File.Scope or
// File.Unresolved. The warm static tier never calls it — facts
// hydrate from the cache — so a restart-warm job runs at zero parses;
// anything that genuinely needs positions or declarations (fresh
// extraction, the LLM reviewer's evidence pass) pays for exactly the
// files it touches.
func (f *File) Syntax() (*ast.File, error) {
	f.parseOnce.Do(func() {
		f.syntax, f.parseErr = parser.ParseFile(f.Fset, f.Path, f.Bytes, parser.ParseComments|parser.SkipObjectResolution)
		if f.parseErr != nil {
			f.syntax = nil
		}
		f.store.reg.Counter("source_parse_total").Inc()
	})
	return f.syntax, f.parseErr
}

// MemoThrough returns the file's derived artifact (the static tier's
// retry facts), computing it at most once per file version, so a warm
// daemon recomputes it only for files that changed. When the memo is
// empty, load (nil for none) may supply it from an external tier (the
// disk facts cache), counted in source_derived_hydrations_total; only
// if that misses too does compute run (source_derived_computes_total).
// Both run under the file's memo lock, so concurrent jobs compute each
// version once; they must not call back into the memo or return nil.
func (f *File) MemoThrough(load func() (any, bool), compute func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.memo != nil {
		f.store.reg.Counter("source_derived_reuse_total").Inc()
		return f.memo
	}
	if load != nil {
		if v, ok := load(); ok {
			f.memo = v
			f.store.reg.Counter("source_derived_hydrations_total").Inc()
			return v
		}
	}
	f.memo = compute()
	f.store.reg.Counter("source_derived_computes_total").Inc()
	return f.memo
}

// Snapshot is one directory's loaded state: every source file, sorted by
// name. Positions in Files[i].Syntax() resolve against Files[i].Fset.
// A snapshot is immutable: a load that finds the directory as the
// store's last snapshot of it returns that snapshot again.
type Snapshot struct {
	// Dir is the directory the snapshot describes.
	Dir string
	// Files are the directory's source files in sorted name order.
	Files []*File

	key  keyMemo             // the analysis cache key (KeyThrough)
	memo atomic.Pointer[any] // what a consumer derived from the snapshot (Memo)
}

// Memo returns the value last kept on the snapshot (Keep), or nil. A
// directory whose files do not change keeps one snapshot, so a consumer
// keeps there what it derives from the snapshot for every later load,
// and validates it itself before reusing it: the snapshot holds one
// such value, and the last Keep wins.
func (s *Snapshot) Memo() any {
	if v := s.memo.Load(); v != nil {
		return *v
	}
	return nil
}

// Keep replaces the value Memo returns with v.
func (s *Snapshot) Keep(v any) { s.memo.Store(&v) }

// KeyThrough is File.KeyThrough for a whole snapshot: a directory
// whose files do not change keeps one snapshot, so its key (the
// analysis cache key) is derived once however many jobs load it.
func (s *Snapshot) KeyThrough(config string, derive func() string) string {
	return s.key.through(config, derive)
}

// TotalBytes sums the snapshot's file sizes.
func (s *Snapshot) TotalBytes() int64 {
	var n int64
	for _, f := range s.Files {
		n += f.Size
	}
	return n
}

// Names returns the file basenames in snapshot (sorted) order.
func (s *Snapshot) Names() []string {
	out := make([]string, len(s.Files))
	for i, f := range s.Files {
		out[i] = f.Name
	}
	return out
}

// Store interns loaded files by (path, content hash). The zero value is
// not usable; call NewStore. A Store may live for one run (the CLI) or
// across many (the daemon shares one across jobs, which is where the
// incremental wins come from).
//
// Per path, only the latest DefaultKeepGenerations versions are
// retained; older versions are evicted wholesale — bytes, AST,
// positions, memoized facts — under the store lock.
type Store struct {
	reg *obs.Registry

	mu            sync.Mutex
	entries       map[fileKey]*File
	gens          map[string][]fileKey // path → entry keys, oldest first
	retainedBytes int64
	files         map[string]fileRecord // path → record of its last read
	dirs          map[string]dirRecord  // dir → record of its last listing

	// once sets up, on the first Load, Load's series in reg and w.
	once     sync.Once
	counters loadCounters
	// w is the process's watcher, or nil when loads keep no records.
	w *watcher
}

// loadCounters are the series every Load counts into.
type loadCounters struct {
	loaded, read, reused, statReused *obs.Counter
}

// fileKey identifies one content version of one path.
type fileKey struct {
	path string
	sum  [sha256.Size]byte
}

// statID is what stat reports of a file or directory that the store
// uses. The zero value means the platform reported nothing.
type statID struct {
	dev, ino uint64
	size     int64
	nlink    uint64
}

// fileRecord is one read of a path: the version it interned, the watch
// of its directory and the sequence number of the drain before it.
type fileRecord struct {
	file  *File
	watch *dirWatch
	seq   uint64
}

// dirRecord is one listing of a directory: the paths of its source
// files in sorted order and which of them are symbolic links, the watch
// and drain it was made under, the directory NUL-terminated for the
// stat that checks the watch, and the last snapshot loaded from this
// listing, if any.
type dirRecord struct {
	paths []string
	links []bool
	watch *dirWatch
	seq   uint64
	cpath []byte
	last  *Snapshot
}

// cPath returns path NUL-terminated, as the stat system call takes it.
// A record keeps its path in this form, so a warm stat copies nothing.
func cPath(path string) []byte {
	b := make([]byte, len(path)+1)
	copy(b, path)
	return b
}

// readBufs pools the buffers Load reads files into. A buffer is free
// again as soon as its file is hashed and interned: intern copies the
// bytes of a new version, and a known version keeps its own copy.
var readBufs = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

// NewStore returns an empty store reporting into reg (nil disables
// metrics), retaining DefaultKeepGenerations content versions per path.
func NewStore(reg *obs.Registry) *Store {
	return &Store{
		reg:     reg,
		entries: make(map[fileKey]*File),
		gens:    make(map[string][]fileKey),
		files:   make(map[string]fileRecord),
		dirs:    make(map[string]dirRecord),
	}
}

// Load returns the snapshot of dir's source files. A file whose record
// is still current is served from the store without reading it
// (source_stat_reuse_total); any other file is read and hashed
// (source_files_loaded_total, source_bytes_total), and the interned
// artifact and everything derived from it are reused when the content
// hash matches a version already interned. Both kinds of reuse count in
// source_reuse_total. The directory listing is reused the same way, and
// so is the snapshot: when a current listing's files are all the
// versions its last snapshot holds, that snapshot is returned, so what
// is derived from it (the analysis cache key) is derived once. Nothing
// is parsed here: unparseable files surface their error from Syntax,
// and each consumer decides (sast fails, llm degrades to "no answer").
func (s *Store) Load(dir string) (*Snapshot, error) {
	s.once.Do(func() { s.start(sharedWatcher()) })
	var seq uint64
	if s.w != nil {
		seq = s.w.drain()
	}
	listing, err := s.list(dir, seq)
	if err != nil {
		return nil, fmt.Errorf("source: %w", err)
	}
	loaded, read, reused, statReused := s.counters.loaded, s.counters.read, s.counters.reused, s.counters.statReused
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	// files stays nil while every file is the one of the listing's last
	// snapshot, which is then returned as it is.
	var files []*File
	for i, path := range listing.paths {
		f := s.recorded(path, listing.watch)
		if f != nil {
			statReused.Inc()
			reused.Inc()
		} else {
			var id statID
			*buf, id, err = readFile(path, *buf)
			if err != nil {
				return nil, fmt.Errorf("source: %w", err)
			}
			loaded.Inc()
			read.Add(int64(len(*buf)))
			// A file linked from elsewhere can change without an event
			// here: only a file with this one name is recorded.
			rec := fileRecord{watch: listing.watch, seq: seq}
			if id.nlink != 1 || listing.links != nil && listing.links[i] {
				rec.watch = nil
			}
			var ok bool
			f, ok = s.intern(path, filepath.Base(path), *buf, rec)
			if ok {
				reused.Inc()
			}
		}
		if files == nil && listing.last != nil && listing.last.Files[i] == f {
			continue
		}
		if files == nil {
			files = make([]*File, 0, len(listing.paths))
			if i > 0 {
				files = append(files, listing.last.Files[:i]...)
			}
		}
		files = append(files, f)
	}
	if files == nil && listing.last != nil {
		return listing.last, nil
	}
	snap := &Snapshot{Dir: dir, Files: files}
	if snap.Files == nil {
		snap.Files = []*File{}
	}
	s.mu.Lock()
	if rec, ok := s.dirs[dir]; ok && slices.Equal(rec.paths, listing.paths) {
		rec.last = snap
		s.dirs[dir] = rec
	}
	s.mu.Unlock()
	return snap, nil
}

// start looks up Load's series and takes w as the store's watcher.
func (s *Store) start(w *watcher) {
	s.w = w
	s.counters = loadCounters{
		loaded:     s.reg.Counter("source_files_loaded_total"),
		read:       s.reg.Counter("source_bytes_total"),
		reused:     s.reg.Counter("source_reuse_total"),
		statReused: s.reg.Counter("source_stat_reuse_total"),
	}
}

// recorded returns the File path's record holds while the record is
// current and was made under watch, the one this load checked its
// directory against, and nil otherwise.
func (s *Store) recorded(path string, watch *dirWatch) *File {
	s.mu.Lock()
	rec, ok := s.files[path]
	s.mu.Unlock()
	if ok && rec.watch == watch && s.w.current(watch, rec.file.Name, rec.seq) {
		return rec.file
	}
	return nil
}

// list returns dir's source files in sorted order: from its record
// while the directory is still the watched one and the record is
// current, and otherwise by reading the directory, after arming a watch
// on it if it was listed before. seq is the load's drain.
//
// A directory is watched from its second load on: a process that loads
// it once, a command-line run or a daemon started for one job, arms no
// watch, and so does not wait at exit for the kernel to tear its watches
// down, which takes milliseconds.
func (s *Store) list(dir string, seq uint64) (dirRecord, error) {
	s.mu.Lock()
	rec, ok := s.dirs[dir]
	s.mu.Unlock()
	if ok && rec.watch != nil {
		if !rec.watch.holds(pathID(rec.cpath)) {
			s.w.disarm(rec.watch)
		} else if s.w.current(rec.watch, "", rec.seq) {
			return rec, nil
		}
	}
	cpath := rec.cpath
	if cpath == nil {
		cpath = cPath(dir)
	}
	var watch *dirWatch
	if ok && s.w != nil {
		watch = s.w.arm(dir, cpath)
	}
	d, err := os.Open(dir)
	if err != nil {
		return dirRecord{}, err
	}
	defer d.Close()
	entries, err := d.ReadDir(-1)
	if err != nil {
		return dirRecord{}, err
	}
	var links map[string]bool // the source files that are symbolic links
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && IsSourceFile(e.Name()) {
			names = append(names, e.Name())
			if e.Type()&fs.ModeSymlink != 0 {
				if links == nil {
					links = make(map[string]bool)
				}
				links[e.Name()] = true
			}
		}
	}
	slices.Sort(names)
	prev := rec
	rec = dirRecord{paths: make([]string, len(names)), watch: watch, seq: seq, cpath: cpath}
	for i, name := range names {
		rec.paths[i] = filepath.Join(dir, name)
		if links[name] {
			if rec.links == nil {
				rec.links = make([]bool, len(names))
			}
			rec.links[i] = true
		}
	}
	if slices.Equal(rec.paths, prev.paths) {
		rec.last = prev.last
	}
	s.mu.Lock()
	s.dirs[dir] = rec
	s.mu.Unlock()
	return rec, nil
}

// ReadFile reads the regular file at path into buf, reusing its
// capacity and growing it as needed, and returns the filled slice: one
// open, fstat, read and close for a file that does not grow while it is
// read, since a short read that reaches the size fstat reported is
// taken as the end of the file.
func ReadFile(path string, buf []byte) ([]byte, error) {
	buf, _, err := readFile(path, buf)
	return buf, err
}

// readFile is ReadFile, also returning what fstat reported of the open
// file before the read.
func readFile(path string, buf []byte) ([]byte, statID, error) {
	f, err := openRead(path)
	if err != nil {
		return buf, statID{}, err
	}
	defer f.close()
	id := f.id()
	buf = slices.Grow(buf[:0], int(id.size)+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF:
			return buf, id, nil
		case err != nil:
			return buf, id, err
		case id != statID{} && len(buf) >= int(id.size) && len(buf) < cap(buf):
			return buf, id, nil
		}
	}
}

// intern returns the canonical File for (path, content) and whether it
// was already interned. On first sight of a content version it copies
// data into a new File; afterwards the interned artifact is reused and
// data is not retained. Interning a new version beyond the retention
// bound evicts the path's oldest generation. The read of data becomes
// path's record when rec has a watch; otherwise path keeps no record.
func (s *Store) intern(path, name string, data []byte, rec fileRecord) (*File, bool) {
	key := fileKey{path: path, sum: sha256.Sum256(data)}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.entries[key]
	if !ok {
		f = &File{
			Name:   name,
			Path:   path,
			Bytes:  bytes.Clone(data),
			SHA256: hex.EncodeToString(key.sum[:]),
			Size:   int64(len(data)),
			Fset:   token.NewFileSet(),
			store:  s,
		}
		s.entries[key] = f
		s.retainedBytes += f.Size
	}
	if rec.watch != nil {
		rec.file = f
		s.files[path] = rec
	} else {
		delete(s.files, path)
	}
	if evicted := s.touchGeneration(key); evicted || !ok {
		s.reg.Gauge("source_store_files").Set(float64(len(s.entries)))
		s.reg.Gauge("source_retained_bytes").Set(float64(s.retainedBytes))
	}
	return f, ok
}

// touchGeneration marks key as its path's most recent generation and
// evicts generations beyond the retention bound, reporting whether it
// evicted any. Called with s.mu held.
func (s *Store) touchGeneration(key fileKey) (evicted bool) {
	g, victims := KeepNewest(s.gens[key.path], key)
	for _, victim := range victims {
		if vf, ok := s.entries[victim]; ok {
			delete(s.entries, victim)
			s.retainedBytes -= vf.Size
			s.reg.Counter("source_evictions_total").Inc()
			evicted = true
		}
	}
	s.gens[key.path] = g
	return evicted
}

// KeepNewest is the retention rule of the store and of the analysis
// cache: it records key as the newest of a lineage's versions (oldest
// first) and splits them into the newest DefaultKeepGenerations to keep
// and the older ones to drop. The kept slice may share versions' array;
// the dropped one is never written again.
func KeepNewest[K comparable](versions []K, key K) (kept, dropped []K) {
	for i, k := range versions {
		if k == key {
			versions = append(versions[:i], versions[i+1:]...)
			break
		}
	}
	versions = append(versions, key)
	if n := len(versions) - DefaultKeepGenerations; n > 0 {
		return versions[n:], versions[:n]
	}
	return versions, nil
}
