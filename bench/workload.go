package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/corpusgen"
	"wasabi/internal/source"
)

// editKind is what a client changes in its input tree before each job.
type editKind int

const (
	editNone       editKind = iota // resubmit unchanged sources
	editRewriteAll                 // rewrite every file of the client's apps
	editOneFile                    // rewrite one file of the client's next app
)

// workload is one traffic mix the benchmark drives wasabid with. Every
// workload is a closed loop: a client submits its next job only after
// the previous report is in hand, as CI jobs and developers do.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop clients, one tenant and one
	// keep-alive connection each.
	clients int
	// genScale selects a generated corpus of genScale×8 apps; 0 selects
	// the built-in seed corpus.
	genScale int
	edit     editKind
	// restart relaunches wasabid over a persisted cache directory for
	// every job, timing each job from exec.
	restart bool
	// warm marks a workload whose measured jobs submit only inputs the
	// daemon, or the cache directory it starts over, has analyzed
	// before: such a job must spend no fresh LLM tokens, and one that
	// does counts as failed.
	warm bool
}

var workloads = []workload{
	{
		name: "warm-corpus", clients: 2, warm: true,
		why: "unchanged 8-app seed corpus from 2 tenants: identify is all cache hits, so the dynamic tier (planner, testkit, fault, oracle) dominates",
	},
	{
		name: "cold-gen", clients: 2, genScale: 2, edit: editRewriteAll,
		why: "2 tenants each rewrite all 8 of their generated apps before a job: every parse, extraction, LLM review and cache write is fresh",
	},
	{
		name: "edit-app", clients: 2, genScale: 1, edit: editOneFile,
		why: "2 tenants each edit one file of one of their 4 generated apps and submit that app: little dynamic work, so the per-job front end shows",
	},
	{
		name: "restart-warm", clients: 1, restart: true, warm: true,
		why: "each job relaunches wasabid over a populated cache directory: process start, disk decode and facts hydration with no parses",
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// primeJobs is how many jobs each client runs during set-up: enough
// that every input the measured loop submits has been analyzed once.
func (w workload) primeJobs() int {
	if w.edit == editOneFile {
		return w.ownedApps()
	}
	return 1
}

// ownedApps is how many generated apps each client owns.
func (w workload) ownedApps() int {
	if w.genScale == 0 {
		return 0
	}
	return w.genScale * 8 / w.clients
}

// markerFormat is the trailing comment an edit writes. It has a fixed
// width and no retry vocabulary, so an edit changes every content hash
// but neither the file length (which sets the simulated LLM's token
// count) nor anything the analyses read: the report stays byte-identical.
const markerFormat = "// bench %06d\n"

const markerModulo = 1000000

// tree is a benchmark input corpus on disk, under the work directory.
// App directories are relative paths, so the daemon (whose working
// directory is the work directory) and the in-process reference and
// replay see the same file paths, and reports do not depend on where the
// checkout lives.
type tree struct {
	// id names the corpus in reference keys: "seed", or
	// "gen-s<seed>-x<scale>" for a generated one.
	id         string
	apps       []corpus.App
	daemonArgs []string
	// files lists each app's source file paths in sorted order, and
	// markerAt holds each file's marker offset: its length without the
	// marker line (generated trees only).
	files    map[string][]string
	markerAt map[string]int64
	// order is each app's seeded file-edit rotation (editOneFile).
	order  map[string][]int
	marker atomic.Int64
}

// seedAppsDir is where the seed corpus sources sit under the work
// directory: the relative path wasabid built with -trimpath resolves the
// seed corpus to.
const seedAppsDir = "wasabi/internal/apps"

// newSeedTree copies the seed corpus sources from the checkout at root
// into the work directory (the process's working directory).
func newSeedTree(root string) (*tree, error) {
	t := &tree{id: "seed"}
	for _, app := range corpus.Apps() {
		name := filepath.Base(app.Dir)
		src := filepath.Join(root, "internal", "apps", name)
		dst := filepath.Join(seedAppsDir, name)
		if err := copySources(src, dst); err != nil {
			return nil, err
		}
		app.Dir = dst
		t.apps = append(t.apps, app)
	}
	return t, nil
}

// copySources replaces dst with the files of src that the static
// workflows read.
func copySources(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return fmt.Errorf("seed corpus: %w", err)
	}
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !source.IsSourceFile(e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// genRoot is the generated corpus root under the work directory.
const genRoot = "gen"

// newGenTree generates a scale×8-app corpus from seed, appends the
// initial marker to every source file, and draws each app's file-edit
// rotation from the same seed.
func newGenTree(seed uint64, scale int) (*tree, error) {
	c, err := corpusgen.Generate(corpusgen.Config{Seed: seed, Scale: scale})
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(genRoot); err != nil {
		return nil, err
	}
	if err := corpusgen.Write(c, genRoot, 1); err != nil {
		return nil, err
	}
	apps, _, err := corpusgen.LoadApps(genRoot)
	if err != nil {
		return nil, err
	}
	t := &tree{
		id:         fmt.Sprintf("gen-s%d-x%d", seed, scale),
		apps:       apps,
		daemonArgs: []string{"-corpus", genRoot},
		files:      map[string][]string{},
		markerAt:   map[string]int64{},
		order:      map[string][]int{},
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for _, app := range apps {
		entries, err := os.ReadDir(app.Dir)
		if err != nil {
			return nil, err
		}
		var paths []string
		for _, e := range entries {
			if !e.IsDir() && source.IsSourceFile(e.Name()) {
				paths = append(paths, filepath.Join(app.Dir, e.Name()))
			}
		}
		sort.Strings(paths)
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			t.markerAt[p] = int64(len(data))
			if err := os.WriteFile(p, append(data, marker(0)...), 0o644); err != nil {
				return nil, err
			}
		}
		t.files[app.Code] = paths
		t.order[app.Code] = rng.Perm(len(paths))
	}
	return t, nil
}

func marker(n int64) []byte { return []byte(fmt.Sprintf(markerFormat, n%markerModulo)) }

// rewrite gives path the next marker value, overwriting the old one in
// place.
func (t *tree) rewrite(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(marker(t.marker.Add(1)), t.markerAt[path]); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// codes returns the app codes of t.apps[lo:hi].
func (t *tree) codes(lo, hi int) []string {
	out := make([]string, 0, hi-lo)
	for _, a := range t.apps[lo:hi] {
		out = append(out, a.Code)
	}
	return out
}

// appsByCode returns the apps with the given codes, in that order.
func (t *tree) appsByCode(codes []string) []corpus.App {
	out := make([]corpus.App, 0, len(codes))
	for _, code := range codes {
		for _, a := range t.apps {
			if a.Code == code {
				out = append(out, a)
			}
		}
	}
	return out
}

// jobInput is one job a client submits.
type jobInput struct {
	tenant string
	// apps are the app codes the job analyzes, in corpus order.
	apps []string
}

// key identifies the job's input for reference digests.
func (in jobInput) key(t *tree) string {
	return t.id + ":" + strings.Join(in.apps, ",")
}

// nextJob prepares client c's i-th job: it applies the workload's edit
// to the tree and returns what to submit. Clients own disjoint apps, so
// concurrent clients never touch the same files.
func (w workload) nextJob(t *tree, c, i int) (jobInput, error) {
	in := jobInput{tenant: fmt.Sprintf("bench-%d", c)}
	if w.genScale == 0 {
		in.apps = t.codes(0, len(t.apps))
		return in, nil
	}
	k := w.ownedApps()
	owned := t.codes(c*k, (c+1)*k)
	switch w.edit {
	case editRewriteAll:
		for _, code := range owned {
			for _, p := range t.files[code] {
				if err := t.rewrite(p); err != nil {
					return in, err
				}
			}
		}
		in.apps = owned
	case editOneFile:
		code := owned[i%k]
		paths := t.files[code]
		p := paths[t.order[code][(i/k)%len(paths)]]
		if err := t.rewrite(p); err != nil {
			return in, err
		}
		in.apps = []string{code}
	}
	return in, nil
}

// inputs lists every distinct job input the workload submits, for
// reference digests.
func (w workload) inputs(t *tree) []jobInput {
	if w.genScale == 0 {
		return []jobInput{{apps: t.codes(0, len(t.apps))}}
	}
	var out []jobInput
	k := w.ownedApps()
	for c := 0; c < w.clients; c++ {
		owned := t.codes(c*k, (c+1)*k)
		if w.edit == editOneFile {
			for _, code := range owned {
				out = append(out, jobInput{apps: []string{code}})
			}
			continue
		}
		out = append(out, jobInput{apps: owned})
	}
	return out
}

// newTree builds the workload's input tree in the working directory.
func (w workload) newTree(root string, seed uint64) (*tree, error) {
	if w.genScale == 0 {
		return newSeedTree(root)
	}
	return newGenTree(seed, w.genScale)
}
