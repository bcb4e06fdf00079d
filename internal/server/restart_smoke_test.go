package server_test

// restart_smoke_test.go is the end-to-end restart exercise `make
// restart-smoke` runs: a real wasabid binary (built here) serving on a
// loopback port with a persistent -cache-dir, one cold job, a SIGTERM
// drain, a relaunch over the same cache directory, and one warm job
// that must reproduce the cold report byte-for-byte while parsing
// nothing and extracting nothing — the acceptance proof that the static
// tier's retry-facts round-trip through the disk cache across process
// boundaries, not just across in-process cache handles. The same build
// also replays every app's dynamic run from disk: the warm job executes
// zero injection runs.

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"wasabi/internal/apps/corpus"
)

// buildWasabid compiles cmd/wasabid into a temp dir and returns the
// binary path. The build is incremental (shared GOCACHE), so this costs
// seconds on the first run and almost nothing after.
func buildWasabid(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "wasabid")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wasabid")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build wasabid: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running wasabid process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startDaemon launches wasabid against cacheDir on a kernel-picked port
// and waits for it to announce its address and pass /healthz.
func startDaemon(t *testing.T, bin, cacheDir string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-dir", cacheDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// The daemon prints "wasabid: listening on 127.0.0.1:PORT (...)" on
	// stderr once the listener is up.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		re := regexp.MustCompile(`listening on (\S+)`)
		for sc.Scan() {
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("wasabid did not announce its listen address")
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("wasabid at %s never became healthy: %v", d.base, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// terminate sends SIGTERM (graceful drain) and waits for a clean exit.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wasabid exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("wasabid did not drain within 60s of SIGTERM")
	}
}

// TestSigtermAfterListenDrains sends SIGTERM the moment wasabid
// announces its address, as a supervisor stopping a just-started daemon
// would. Every launch must drain and exit cleanly: a signal that
// arrives once clients can reach the daemon must not kill it.
func TestSigtermAfterListenDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches a real wasabid binary")
	}
	bin := buildWasabid(t)
	for i := 0; i < 20; i++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "listening on") {
				break
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, stderr)
		if err := cmd.Wait(); err != nil {
			t.Fatalf("launch %d: wasabid exited uncleanly on SIGTERM right after listening: %v", i, err)
		}
	}
}

// metricValue reads one series from a /metrics exposition. An absent
// series reads as 0 — exactly how an aggregator would see it, and the
// correct interpretation for counters that were never incremented.
func metricValue(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err == nil {
			return v
		}
	}
	return 0
}

// metricSum sums every series of one metric across its label sets.
func metricSum(text, name string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		series, val, ok := strings.Cut(line, " ")
		if !ok || (series != name && !strings.HasPrefix(series, name+"{")) {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			sum += v
		}
	}
	return sum
}

// jobBuild reads the build identity a job view reports.
func jobBuild(t *testing.T, base, id string) string {
	t.Helper()
	var v struct {
		Build string `json:"build"`
	}
	getJSON(t, base+"/v1/jobs/"+id, &v)
	return v.Build
}

// getMetrics fetches the full /metrics exposition text.
func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestRestartSmokeProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	bin := buildWasabid(t)
	cacheDir := t.TempDir()

	// Cold process: the job pays real parses, extractions and LLM spend,
	// and the disk tier absorbs every review and facts entry.
	d1 := startDaemon(t, bin, cacheDir)
	id1 := submit(t, d1.base, "restart-smoke")
	_, coldReport, coldFresh := await(t, d1.base, id1)
	if coldFresh.TokensIn == 0 || coldFresh.Calls == 0 {
		t.Fatalf("cold job spent nothing: %+v", coldFresh)
	}
	coldMetrics := getMetrics(t, d1.base)
	if n := metricValue(coldMetrics, "source_parse_total"); n == 0 {
		t.Fatal("cold job parsed nothing — the smoke test is not exercising the static tier")
	}
	if n := metricValue(coldMetrics, "source_derived_computes_total"); n == 0 {
		t.Fatal("cold job extracted nothing")
	}
	if n := metricValue(coldMetrics, "cache_disk_entries"); n == 0 {
		t.Fatal("cold job persisted nothing to the disk tier")
	}
	if n := metricSum(coldMetrics, "core_injection_runs_total"); n == 0 {
		t.Fatal("cold job executed no injection runs")
	}
	coldBuild := jobBuild(t, d1.base, id1)
	if coldBuild == "" {
		t.Fatal("job view reports no build identity")
	}
	d1.terminate(t)

	// Warm process over the same cache directory: byte-identical report,
	// zero fresh LLM spend, and — the portable-facts guarantee — zero
	// parses and zero extractions, every file hydrated from disk.
	d2 := startDaemon(t, bin, cacheDir)
	id2 := submit(t, d2.base, "restart-smoke")
	_, warmReport, warmFresh := await(t, d2.base, id2)
	warmMetrics := getMetrics(t, d2.base)
	// Every entry the cold process wrote decodes: a decoder that wrongly
	// rejected one would otherwise show only as a recomputation.
	for _, name := range []string{"cache_decode_errors_total", "cache_disk_drops_total"} {
		if n := metricValue(warmMetrics, name); n != 0 {
			t.Fatalf("restart-warm job counted %s = %v, want 0", name, n)
		}
	}
	if warmFresh.TokensIn != 0 || warmFresh.Calls != 0 {
		t.Fatalf("restart-warm job spent fresh LLM traffic: %+v", warmFresh)
	}
	if !bytes.Equal(coldReport, warmReport) {
		t.Fatalf("restart-warm report differs from cold: %d vs %d bytes",
			len(warmReport), len(coldReport))
	}
	if n := metricValue(warmMetrics, "source_parse_total"); n != 0 {
		t.Fatalf("restart-warm job parsed %v files, want 0", n)
	}
	if n := metricValue(warmMetrics, "source_derived_computes_total"); n != 0 {
		t.Fatalf("restart-warm job ran %v extractions, want 0", n)
	}
	if n := metricValue(warmMetrics, "source_derived_hydrations_total"); n == 0 {
		t.Fatal("restart-warm job hydrated no facts from the disk tier")
	}
	if n := metricValue(warmMetrics, `cache_hits_total{stage="facts"}`); n == 0 {
		t.Fatal("restart-warm job recorded no facts-stage cache hits")
	}
	// The relaunched binary is the same build, so every app's dynamic
	// run replays from the disk tier and no injection run executes.
	if b := jobBuild(t, d2.base, id2); b != coldBuild {
		t.Fatalf("relaunched daemon reports build %q, want %q", b, coldBuild)
	}
	if n := metricSum(warmMetrics, "core_injection_runs_total"); n != 0 {
		t.Fatalf("restart-warm job executed %v injection runs, want 0", n)
	}
	if n := metricValue(warmMetrics, `cache_hits_total{stage="dynamic"}`); n != float64(len(corpus.Apps())) {
		t.Fatalf("restart-warm dynamic hits = %v, want one per app (%d)", n, len(corpus.Apps()))
	}
	d2.terminate(t)

	// The drained daemons left the cache directory intact for the next
	// restart: entries on disk, no stray temp files.
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			n++
		} else {
			t.Fatalf("stray non-entry file in cache dir: %s", e.Name())
		}
	}
	if n == 0 {
		t.Fatal("cache directory empty after drain")
	}
}
