package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite reference.json from in-process reference runs")

// chdirTemp moves the test into a fresh work directory, where the
// benchmark's relative input paths resolve, and returns the checkout
// root.
func chdirTemp(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	return root
}

func TestPercentilesAndSampleRule(t *testing.T) {
	if got := minSamples(0.9); got != 100 {
		t.Fatalf("minSamples(0.9) = %d, want 100", got)
	}
	if got := minSamples(0.5); got != 20 {
		t.Fatalf("minSamples(0.5) = %d, want 20", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Fatalf("p90 = %v, want 90", got)
	}

	res := &result{Workload: "w", Metrics: map[string]float64{}, Samples: map[string]int{}}
	m := &measurement{setups: []float64{1}, setupRates: []float64{1}, rssMB: []float64{1},
		slices:    []slice{{rate: 1, latencies: make([]float64, 50), seconds: 1}, {rate: 1, latencies: make([]float64, 49), seconds: 1}},
		attempted: 99, done: 99}
	cfg := config{minSamples: minSamples(0.9), seconds: time.Second}
	if err := res.endToEnd(cfg, m); err == nil || !strings.Contains(err.Error(), "fewer than the 100") {
		t.Fatalf("99 samples: err = %v, want the sample-count rule", err)
	}
	m.slices[1].latencies = append(m.slices[1].latencies, 0)
	m.attempted, m.done = 100, 100
	if err := res.endToEnd(cfg, m); err != nil {
		t.Fatalf("100 samples: %v", err)
	}
}

func TestShortWindowGoesOn(t *testing.T) {
	// One job per slice: the window's slices hold 16 jobs, short of 20,
	// so the window goes on for four more slices.
	m := &measurement{}
	col := &collector{m: m, refs: map[string]string{"k": "d"}}
	cfg := config{seconds: slices * time.Millisecond, minSamples: 20}
	err := measureSlices(cfg, m, col, func(time.Time) (float64, error) {
		col.add("k", jobResult{digest: "d", latency: time.Millisecond}, 1, time.Now())
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.slices) != 20 || m.attempted != 20 {
		t.Fatalf("%d slices, %d jobs, want 20 and 20", len(m.slices), m.attempted)
	}
}

func TestProbeScaling(t *testing.T) {
	// The first slice ran at the reference rate, the second at half of
	// it: its times count half. Raw keeps them as measured.
	m := &measurement{
		setups: []float64{0.5, 0.1, 0.2}, setupRates: []float64{referenceRate / 2, referenceRate, 2 * referenceRate},
		rssMB: []float64{10},
		slices: []slice{
			{rate: referenceRate, latencies: []float64{10, 10}, seconds: 1, cpuMS: 20},
			{rate: referenceRate / 2, latencies: []float64{30, 30}, seconds: 2, cpuMS: 60},
		},
		attempted: 4, done: 4, freshTokens: 400,
	}
	res := &result{Workload: "w", Metrics: map[string]float64{}, Samples: map[string]int{}}
	if err := res.endToEnd(config{minSamples: 1}, m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		scaled, raw float64
	}{
		{"setup_s", 0.25, 0.2},
		{"job_ms_p50", 10, 10},
		{"job_ms_p90", 15, 30},
		{"jobs_per_s", 2, 4.0 / 3},
		{"daemon_cpu_ms_per_job", 12.5, 20},
		{"daemon_rss_mb_peak", 10, -1},
		{"fresh_tokens_per_job", 100, -1},
		{"failed_frac", 0, -1},
	} {
		if got := res.Metrics[tc.name]; math.Abs(got-tc.scaled) > 1e-9 {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.scaled)
		}
		raw, ok := res.Raw[tc.name]
		if ok != (tc.raw >= 0) || ok && math.Abs(raw-tc.raw) > 1e-9 {
			t.Errorf("raw %s = %v (present %v), want %v", tc.name, raw, ok, tc.raw)
		}
	}
}

func TestFailedJobsMissEveryLimit(t *testing.T) {
	col := &collector{m: &measurement{}, refs: map[string]string{"k": "good"}, warm: true}
	for i := 0; i < 87; i++ {
		col.add("k", jobResult{digest: "good", latency: time.Millisecond}, 1, time.Now())
	}
	col.add("k", jobResult{err: errString("429")}, 1, time.Now())
	col.add("k", jobResult{err: errString("failed")}, 1, time.Now())
	col.add("k", jobResult{err: errString("reset")}, 1, time.Now())
	for i := 0; i < 9; i++ {
		col.add("k", jobResult{digest: "wrong", latency: time.Millisecond}, 1, time.Now())
	}
	// On a warm workload, a right report that spent fresh tokens missed
	// the cache.
	col.add("k", jobResult{digest: "good", latency: time.Millisecond, freshTokens: 5}, 1, time.Now())
	m := col.m
	m.slices = []slice{{rate: referenceRate, latencies: col.endSlice(), seconds: 1}}
	if m.attempted != 100 || m.failed != 13 || m.done != 87 {
		t.Fatalf("attempted %d failed %d done %d, want 100/13/87", m.attempted, m.failed, m.done)
	}
	res := &result{Workload: "w", Metrics: map[string]float64{}, Samples: map[string]int{}}
	m.setups, m.setupRates, m.rssMB = []float64{1}, []float64{referenceRate}, []float64{1}
	if err := res.endToEnd(config{minSamples: 100}, m); err != nil {
		t.Fatal(err)
	}
	// 13 of 100 jobs missed: p90 lands on a miss, p50 does not.
	if got := res.Metrics["job_ms_p90"]; got != math.MaxFloat64 {
		t.Fatalf("job_ms_p90 = %v, want the largest float", got)
	}
	if got := res.Metrics["job_ms_p50"]; got != 1 {
		t.Fatalf("job_ms_p50 = %v, want 1", got)
	}
	if got := res.Metrics["failed_frac"]; got != 0.13 {
		t.Fatalf("failed_frac = %v, want 0.13", got)
	}
	if got := res.Metrics["fresh_tokens_per_job"]; got != 0 {
		t.Fatalf("fresh_tokens_per_job = %v, want 0 (the spending job failed)", got)
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s.Median != 5.5 || s.N != 10 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestVerdictAgainstBound(t *testing.T) {
	def := func(name string) metricDef {
		for _, d := range endToEnd {
			if d.Name == name {
				return d
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return metricDef{}
	}
	lower, higher, setup := def("job_ms_p50"), def("jobs_per_s"), def("setup_s")
	tokens, failed := def("fresh_tokens_per_job"), def("failed_frac")
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	exact := func(m float64) summary { return summary{Median: m, Q1: m, Q3: m, N: 10} }
	for _, tc := range []struct {
		def  metricDef
		a, b summary
		want string
	}{
		{lower, tight(100), tight(109), verdictOK},
		{lower, tight(100), tight(111), verdictRegressed},
		{lower, tight(100), tight(50), verdictOK},
		{higher, tight(100), tight(91), verdictOK},
		{higher, tight(100), tight(89), verdictRegressed},
		{higher, tight(100), tight(150), verdictOK},
		{lower, summary{Median: 100, Q1: 90, Q3: 120, N: 10}, tight(100), verdictUnresolved},
		{lower, tight(100), summary{Median: 100, Q1: 80, Q3: 120, N: 10}, verdictUnresolved},
		// setup_s may worsen by 10% or 0.025 s, whichever is more.
		{setup, tight(0.1), tight(0.124), verdictOK},
		{setup, tight(0.1), tight(0.126), verdictRegressed},
		{setup, tight(1), tight(1.09), verdictOK},
		{setup, tight(1), tight(1.11), verdictRegressed},
		// Fresh tokens: 2% over a spending baseline, nothing over none.
		{tokens, exact(1000), exact(1019), verdictOK},
		{tokens, exact(1000), exact(1021), verdictRegressed},
		{tokens, exact(0), exact(0), verdictOK},
		{tokens, exact(0), exact(1), verdictRegressed},
		{tokens, exact(0), summary{Median: 0, Q1: 0, Q3: 5, N: 10}, verdictUnresolved},
		// failed_frac may never rise.
		{failed, exact(0), exact(0), verdictOK},
		{failed, exact(0), exact(0.001), verdictRegressed},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.def.Name, tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
}

func TestMarkerKeepsFileLength(t *testing.T) {
	chdirTemp(t)
	tr, err := newGenTree(defaultSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	paths := tr.files[tr.apps[0].Code]
	before, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(before, []byte("// bench 000000\n")) {
		t.Fatalf("initial tree lacks the marker line: %q", before[len(before)-20:])
	}
	for _, n := range []int64{1, 42, 999999, 1000000, 123456789} {
		tr.marker.Store(n - 1)
		if err := tr.rewrite(paths[0]); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) || bytes.Equal(after, before) && n%markerModulo != 0 {
			t.Fatalf("marker %d: %d bytes (want %d), changed %v", n, len(after), len(before), !bytes.Equal(after, before))
		}
	}
}

func TestProcParsing(t *testing.T) {
	stat := []byte("4242 (wasabid (x) y) S 1 4242 4242 0 -1 4194560 1017 0 0 0 250 37 0 0 20 0 9 0 123 1000 200 18446744073709551615\n")
	ticks, err := parseStatCPU(stat)
	if err != nil || ticks != 287 {
		t.Fatalf("parseStatCPU = %d, %v, want 287", ticks, err)
	}
	if _, err := parseStatCPU([]byte("4242 (short) S 1 2")); err == nil {
		t.Fatal("truncated stat parsed")
	}
	status := []byte("Name:\twasabid\nVmPeak:\t  812340 kB\nVmHWM:\t   40960 kB\nVmRSS:\t   38000 kB\nRssFile:\t    9024 kB\n")
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 40960 {
		t.Fatalf("parseStatusKB = %d, %v, want 40960", kb, err)
	}
	if kb, err := parseStatusKB(status, "RssFile"); err != nil || kb != 9024 {
		t.Fatalf("parseStatusKB RssFile = %d, %v, want 9024", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Fatal("missing line parsed")
	}
	// The live process reads too.
	if _, err := processCPUms(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if rss, err := processPeakRSSmb(os.Getpid()); err != nil || rss <= 0 {
		t.Fatalf("processPeakRSSmb = %v, %v", rss, err)
	}
}

// fileMetric is a metric as BENCHMARK.json lists it.
type fileMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's workloads and
// metrics in step with the benchmark's own tables.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []fileMetric `json:"end_to_end"`
		PerLayer   []fileMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, want %d", spec.RunSeconds, defaultSeconds)
	}
	var want, got []string
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	for _, w := range spec.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads\n%q\nwant\n%q", got, want)
	}
	asFile := func(defs []metricDef) []fileMetric {
		var out []fileMetric
		for _, d := range defs {
			out = append(out, fileMetric{d.Name, d.Unit, d.Better, d.Gate})
		}
		return out
	}
	if want := asFile(gated()); !reflect.DeepEqual(spec.EndToEnd, want) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\nwant\n%+v", spec.EndToEnd, want)
	}
	if want := asFile(perLayer); !reflect.DeepEqual(spec.PerLayer, want) {
		t.Errorf("BENCHMARK.json per_layer\n%+v\nwant\n%+v", spec.PerLayer, want)
	}
	// Set-up time carries the largest bound.
	for _, d := range gated() {
		if d.Gate > endToEnd[0].Gate {
			t.Errorf("%s has bound %v, larger than setup_s's %v", d.Name, d.Gate, endToEnd[0].Gate)
		}
	}
}

// TestPinnedDigests recomputes every pinned digest in-process; with
// -update it rewrites reference.json instead.
func TestPinnedDigests(t *testing.T) {
	root := chdirTemp(t)
	got := map[string]string{}
	for _, w := range workloads {
		tr, err := w.newTree(root, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range w.inputs(tr) {
			d, err := referenceDigest(tr.appsByCode(in.apps))
			if err != nil {
				t.Fatal(err)
			}
			got[in.key(tr)] = d
		}
	}
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		f := pinnedFile{About: "sha256 of the compact JSON report for each pinned job input; regenerate with: cd bench && go test -run TestPinnedDigests -update", Digests: got}
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "bench", "reference.json"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pinned, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pinned) {
		t.Fatalf("in-process reports differ from reference.json:\n got %v\nwant %v", got, pinned)
	}
}

// TestBenchSmoke builds wasabid and runs every workload for about a
// second, untraced and traced, with every check on.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wasabid and runs real daemons; skipped in -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "wasabid")
	build := exec.Command("go", "build", "-trimpath", "-o", bin, "./cmd/wasabid")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build wasabid: %v\n%s", err, out)
	}
	traceDir := t.TempDir()
	chdirTemp(t)
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			cfg := config{wasabid: bin, root: root, seed: 2, seconds: time.Second, setups: 1, minSamples: 1}
			if traced {
				cfg.traceDir = traceDir
			}
			res, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct %v, %d of %d failed: %v", w.name, traced, res.Correct, res.Failed, res.Attempted, res.errs)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(traceDir, w.name+".trace.json")); err != nil {
					t.Error(err)
				}
			}
		}
	}
}
