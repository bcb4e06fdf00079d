// dynamic.go is the cache's dynamic stage: one entry per app holds the
// outcome of that app's injection runs (§3.1.2–§3.1.4: coverage pass,
// plan, trigger-exception runs at both K settings, oracle evaluation).
// The paper's runs take 10–20 hours per app, and they depend only on
// the compiled build, the suite, the retry locations and the run
// options — so a daemon that has already run them against this build
// replays the outcome instead of executing the suite again.
//
// The entry is keyed by build identity (the Go build ID of the running
// executable), suite identity (testkit.Suite.ID) and the run inputs;
// docs/SERVICE.md documents the derivation. A run whose build or suite
// has no identity gets no key and is never memoised.
package cache

import (
	"crypto/sha256"
	"debug/elf"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"wasabi/internal/fault"
	"wasabi/internal/jsonread"
	"wasabi/internal/oracle"
)

// dynamicSchema identifies the dynamic-entry format; it is folded into
// every dynamicKey, so bumping it orphans old entries instead of
// failing their decode.
const dynamicSchema = "wasabi-dynamic-cache/v1"

// DynamicRun is the memoised outcome of one app's dynamic run:
// everything core.RunDynamic derives from executing the suite.
type DynamicRun struct {
	// Reports are the deduplicated oracle reports.
	Reports []oracle.Report `json:"reports"`
	// TestsCoveringRetry, StructuresTested and StrippedOverrides come
	// from the coverage pass.
	TestsCoveringRetry int `json:"tests_covering_retry"`
	StructuresTested   int `json:"structures_tested"`
	StrippedOverrides  int `json:"stripped_overrides"`
	// PlanEntries, NaiveRuns and PlannedRuns are the plan statistics.
	PlanEntries int `json:"plan_entries"`
	NaiveRuns   int `json:"naive_runs"`
	PlannedRuns int `json:"planned_runs"`
	// InjectionRunsFailed counts runs that crashed, before oracle
	// filtering.
	InjectionRunsFailed int `json:"injection_runs_failed"`
}

// dynamicEnvelope is the persisted form of one dynamic entry. The key is
// stored redundantly so a file copied to the wrong address fails closed.
type dynamicEnvelope struct {
	Schema string     `json:"schema"`
	Key    string     `json:"key"`
	Run    DynamicRun `json:"run"`
}

// dynamicKey addresses one app's dynamic run. It hashes the build
// identity, the suite identity, the app code, the exact retry-location
// list (order included), both K settings and the oracle's cap threshold
// and virtual timeout — nothing else; the oracle's metrics registry
// does not change a verdict. An empty build or suite identity yields
// the empty key, which the dynamic stage never memoises.
func dynamicKey(build, suite, app string, locs []fault.Location, howK, capK int, o oracle.Options) string {
	if build == "" || suite == "" {
		return ""
	}
	h := sha256.New()
	var stack [512]byte
	h.Write(appendDynamicParts(stack[:0], build, suite, app, howK, capK, o))
	for _, l := range locs {
		h.Write(appendParts(stack[:0], l.Coordinator, l.Retried, l.Exception))
	}
	var sum [sha256.Size]byte
	return hexKey(h.Sum(sum[:0]))
}

// dynamicLineage names the dynamic entries that replace one another as
// an app's retry locations change: one app under one build, suite and
// set of run options, which is every dynamicKey input except the
// location list.
func dynamicLineage(build, suite, app string, howK, capK int, o oracle.Options) lineage {
	var stack [512]byte
	sum := sha256.Sum256(appendDynamicParts(stack[:0], build, suite, app, howK, capK, o))
	return lineage{Stage: StageDynamic, Scope: app, Config: hexKey(sum[:])}
}

// appendDynamicParts appends the NUL-terminated key inputs dynamicKey
// and dynamicLineage share to b.
func appendDynamicParts(b []byte, build, suite, app string, howK, capK int, o oracle.Options) []byte {
	b = appendParts(b, "dynamic", dynamicSchema, build, suite, app)
	for _, n := range [...]int64{int64(howK), int64(capK), int64(o.CapThreshold), int64(o.VirtualTimeout)} {
		b = append(strconv.AppendInt(b, n, 10), 0)
	}
	return b
}

// DynamicKeys memoizes the key and lineage of one app's dynamic run
// over one location list, which the caller must never change while it
// keeps the memo: both are derived once per set of the other inputs
// (build, suite, app, K settings, oracle options), which the memo
// compares by value. The zero value is ready to use; a nil memo derives
// both afresh on every call.
type DynamicKeys struct{ last atomic.Pointer[dynamicKeys] }

// dynamicKeys is the key and lineage derived under one set of inputs.
type dynamicKeys struct {
	build, suite, app string
	howK, capK        int
	capThreshold      int
	timeout           int64
	key               string
	lineage           lineage
}

// through returns the key and lineage of a dynamic run over locs.
func (m *DynamicKeys) through(build, suite, app string, locs []fault.Location, howK, capK int, o oracle.Options) (string, lineage) {
	var last *dynamicKeys
	if m != nil {
		last = m.last.Load()
	}
	if last != nil && last.build == build && last.suite == suite && last.app == app && last.howK == howK &&
		last.capK == capK && last.capThreshold == o.CapThreshold && last.timeout == int64(o.VirtualTimeout) {
		return last.key, last.lineage
	}
	k := &dynamicKeys{build: build, suite: suite, app: app, howK: howK, capK: capK,
		capThreshold: o.CapThreshold, timeout: int64(o.VirtualTimeout),
		key: dynamicKey(build, suite, app, locs, howK, capK, o)}
	if k.key != "" {
		k.lineage = dynamicLineage(build, suite, app, howK, capK, o)
	}
	if m != nil {
		m.last.Store(k)
	}
	return k.key, k.lineage
}

// Dynamic returns app's dynamic run against locs under build and suite
// with the given run options. A miss executes run and stores its
// outcome unless it failed; a failed run stores nothing and returns its
// error. The key is recorded on the app's lineage (dynamicLineage) on
// every path; keys (nil for none) memoizes both for a caller that
// keeps locs unchanged. A nil cache, or an empty build or suite
// identity, runs without a key: run executes and nothing is looked up,
// counted or stored.
func (c *Cache) Dynamic(keys *DynamicKeys, build, suite, app string, locs []fault.Location, howK, capK int, o oracle.Options, run func() (DynamicRun, error)) (DynamicRun, error) {
	if c == nil {
		return run()
	}
	key, lin := keys.through(build, suite, app, locs, howK, capK, o)
	if key == "" {
		return run()
	}
	defer c.supersede(lin, key)
	if r, ok := c.getDynamic(key); ok {
		return r, nil
	}
	r, err := run()
	if err != nil {
		return DynamicRun{}, err
	}
	c.putDynamic(key, r)
	return r, nil
}

// getDynamic returns the memoised dynamic run under key. Every hit
// returns the same shared value, which callers must not mutate (its
// Reports slice included). Misses fall through to the disk tier.
func (c *Cache) getDynamic(key string) (DynamicRun, bool) {
	v, _ := c.get(StageDynamic, key, func(data []byte) (any, error) { return decodeDynamic(data, key) })
	run, ok := v.(DynamicRun)
	return run, ok
}

// putDynamic memoises a dynamic run under key, writing through to the
// disk tier. The cache keeps run itself, so neither the caller nor any
// later reader may mutate it.
func (c *Cache) putDynamic(key string, run DynamicRun) {
	c.put(key, run, func() ([]byte, error) { return encodeDynamic(key, run) })
}

// encodeDynamic renders the envelope bytes stored in the disk tier.
func encodeDynamic(key string, run DynamicRun) ([]byte, error) {
	return json.Marshal(dynamicEnvelope{Schema: dynamicSchema, Key: key, Run: run})
}

// decodeDynamic parses envelope bytes, verifying schema and key. It
// reads only the form encodeDynamic writes (package jsonread).
func decodeDynamic(data []byte, key string) (DynamicRun, error) {
	var run DynamicRun
	err := decodeEnvelope(data, dynamicSchema, key, "run", func(r *jsonread.Reader) {
		jsonread.Slice(r, "reports", &run.Reports, readReport)
		jsonread.Int(r, "tests_covering_retry", &run.TestsCoveringRetry)
		jsonread.Int(r, "structures_tested", &run.StructuresTested)
		jsonread.Int(r, "stripped_overrides", &run.StrippedOverrides)
		jsonread.Int(r, "plan_entries", &run.PlanEntries)
		jsonread.Int(r, "naive_runs", &run.NaiveRuns)
		jsonread.Int(r, "planned_runs", &run.PlannedRuns)
		jsonread.Int(r, "injection_runs_failed", &run.InjectionRunsFailed)
	})
	if err != nil {
		return DynamicRun{}, err
	}
	return run, nil
}

func readReport(r *jsonread.Reader, rep *oracle.Report) {
	r.String("Kind", (*string)(&rep.Kind))
	r.String("App", &rep.App)
	r.String("Test", &rep.Test)
	r.String("Coordinator", &rep.Coordinator)
	r.String("Retried", &rep.Retried)
	r.String("Exception", &rep.Exception)
	r.String("GroupKey", &rep.GroupKey)
	r.String("Details", &rep.Details)
}

// buildID memoises the executable's build ID for the process lifetime.
var buildID = sync.OnceValue(readBuildID)

// BuildID returns the Go build ID of the running executable, read once
// per process from its .note.go.buildid ELF note. The build ID changes
// whenever the linked binary's content does, which is what dynamic
// results depend on (the seed suites are compiled into it). Reading the
// note is a few section headers; hashing the whole executable would be
// two orders of magnitude slower, and a restarted daemon pays it on
// every launch. It returns "" where there is no such note (a non-ELF
// platform, or a binary linked with an empty -buildid), and a process
// without a build identity memoises no dynamic run.
func BuildID() string { return buildID() }

// readBuildID reads the build-ID note of os.Executable.
func readBuildID() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := elf.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	sec := f.Section(".note.go.buildid")
	if sec == nil {
		return ""
	}
	note, err := sec.Data()
	if err != nil || len(note) < 16 {
		return ""
	}
	// An ELF note is namesz, descsz and type (32-bit words), then the
	// name padded to 4 bytes, then the descriptor: Go writes name "Go",
	// type 4 and the build ID as the descriptor.
	bo := f.ByteOrder
	namesz, descsz, typ := bo.Uint32(note), bo.Uint32(note[4:]), bo.Uint32(note[8:])
	if namesz != 4 || typ != 4 || string(note[12:16]) != "Go\x00\x00" || uint64(len(note)-16) < uint64(descsz) {
		return ""
	}
	return string(note[16 : 16+descsz])
}
