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
	"debug/elf"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"

	"wasabi/internal/fault"
	"wasabi/internal/oracle"
)

// dynamicSchema identifies the dynamic-entry format; it is folded into
// every DynamicKey, so bumping it orphans old entries instead of
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

// DynamicKey addresses one app's dynamic run. It hashes the build
// identity, the suite identity, the app code, the exact retry-location
// list (order included), both K settings and the oracle's cap threshold
// and virtual timeout — nothing else; the oracle's metrics registry
// does not change a verdict. An empty build or suite identity yields
// the empty key, which the dynamic stage never memoises.
func DynamicKey(build, suite, app string, locs []fault.Location, howK, capK int, o oracle.Options) string {
	if build == "" || suite == "" {
		return ""
	}
	parts := dynamicParts(build, suite, app, howK, capK, o)
	for _, l := range locs {
		parts = append(parts, l.Coordinator, l.Retried, l.Exception)
	}
	return keyOf(parts...)
}

// DynamicLineage names the dynamic entries that replace one another as
// an app's retry locations change: one app under one build, suite and
// set of run options, which is every DynamicKey input except the
// location list.
func DynamicLineage(build, suite, app string, howK, capK int, o oracle.Options) Lineage {
	return Lineage{Stage: StageDynamic, Scope: app, Config: keyOf(dynamicParts(build, suite, app, howK, capK, o)...)}
}

// dynamicParts lists the key inputs DynamicKey and DynamicLineage share.
func dynamicParts(build, suite, app string, howK, capK int, o oracle.Options) []string {
	return []string{"dynamic", dynamicSchema, build, suite, app,
		strconv.Itoa(howK), strconv.Itoa(capK),
		strconv.Itoa(o.CapThreshold), strconv.FormatInt(int64(o.VirtualTimeout), 10)}
}

// GetDynamic returns the memoised dynamic run under key. Every hit
// returns the same shared value, which callers must not mutate (its
// Reports slice included). Misses fall through to the disk tier. The
// empty key is a silent miss: it is neither looked up nor counted.
func (c *Cache) GetDynamic(key string) (DynamicRun, bool) {
	if c == nil || key == "" {
		return DynamicRun{}, false
	}
	v, _ := c.get(StageDynamic, key, func(data []byte) (any, error) { return decodeDynamic(data, key) })
	run, ok := v.(DynamicRun)
	return run, ok
}

// PutDynamic memoises a dynamic run under key, writing through to the
// disk tier. The cache keeps run itself, so neither the caller nor any
// later reader may mutate it. The empty key stores nothing.
func (c *Cache) PutDynamic(key string, run DynamicRun) {
	if c == nil || key == "" {
		return
	}
	c.put(key, run, func() ([]byte, error) { return encodeDynamic(key, run) })
}

// encodeDynamic renders the envelope bytes stored in the disk tier.
func encodeDynamic(key string, run DynamicRun) ([]byte, error) {
	return json.Marshal(dynamicEnvelope{Schema: dynamicSchema, Key: key, Run: run})
}

// decodeDynamic parses envelope bytes, verifying schema and key.
func decodeDynamic(data []byte, key string) (DynamicRun, error) {
	var env dynamicEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return DynamicRun{}, fmt.Errorf("cache: decode dynamic entry: %w", err)
	}
	if env.Schema != dynamicSchema || env.Key != key {
		return DynamicRun{}, fmt.Errorf("cache: dynamic entry schema/key mismatch (schema %q)", env.Schema)
	}
	return env.Run, nil
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
