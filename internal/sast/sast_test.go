package sast

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"wasabi/internal/apps/corpus"
)

func analyzeHDFS(t *testing.T) *Analysis {
	t.Helper()
	app, err := corpus.ByCode("HD")
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeDir(app.Dir)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func loopByCoordinator(a *Analysis, name string) *RetryLoop {
	for i := range a.Loops {
		if a.Loops[i].Coordinator == name {
			return &a.Loops[i]
		}
	}
	return nil
}

func TestAnalyzeFindsMethodsAndThrows(t *testing.T) {
	a := analyzeHDFS(t)
	m := a.Methods["hdfs.WebFS.connect"]
	if m == nil {
		t.Fatal("hdfs.WebFS.connect not found")
	}
	if len(m.Throws) != 2 || m.Throws[0] != "ConnectException" || m.Throws[1] != "AccessControlException" {
		t.Errorf("Throws = %v", m.Throws)
	}
	if !m.HasHook {
		t.Error("connect should be hook-instrumented")
	}
}

func TestMethodWithoutThrows(t *testing.T) {
	a := analyzeHDFS(t)
	m := a.Methods["hdfs.WebFS.Fetch"]
	if m == nil {
		t.Fatal("Fetch not found")
	}
	if len(m.Throws) != 0 {
		t.Errorf("coordinator should not declare Throws, got %v", m.Throws)
	}
}

func TestKeywordedLoopsDetected(t *testing.T) {
	a := analyzeHDFS(t)
	for _, want := range []string{
		"hdfs.WebFS.Fetch",
		"hdfs.WebFS.UploadChunked",
		"hdfs.DFSInputStream.ReadBlock",
		"hdfs.DFSInputStream.ReadWithFailover",
		"hdfs.DataStreamer.SetupPipeline",
		"hdfs.Mover.MoveBlock",
		"hdfs.EditLogTailer.CatchUp",
		"hdfs.Checkpointer.UploadImage",
		"hdfs.NamenodeRPC.Call",
	} {
		if loopByCoordinator(a, want) == nil {
			t.Errorf("retry loop %s not detected", want)
		}
	}
}

func TestNonKeywordedLoopsMissed(t *testing.T) {
	a := analyzeHDFS(t)
	for _, miss := range []string{
		"hdfs.BlockFetcher.FetchChecksummed", // counter named "tries"
		"hdfs.LeaseRenewer.Renew",
		"hdfs.DataStreamer.WritePacketGroup",
	} {
		if loopByCoordinator(a, miss) != nil {
			t.Errorf("keyword filter should miss %s", miss)
		}
	}
}

func TestNonLoopRetryNotDetected(t *testing.T) {
	a := analyzeHDFS(t)
	for _, miss := range []string{
		"hdfs.Balancer.processTask",    // queue re-enqueue
		"hdfs.ReconstructionProc.Step", // state machine
		"hdfs.RegistrationProc.Step",   // state machine
	} {
		if loopByCoordinator(a, miss) != nil {
			t.Errorf("structural analysis should not flag non-loop retry %s", miss)
		}
	}
}

func TestCandidateLoopsExceedFiltered(t *testing.T) {
	a := analyzeHDFS(t)
	if a.CandidateLoops <= len(a.Loops) {
		t.Errorf("candidates = %d should exceed keyword-filtered = %d",
			a.CandidateLoops, len(a.Loops))
	}
}

func TestTripletsForFetch(t *testing.T) {
	a := analyzeHDFS(t)
	loop := loopByCoordinator(a, "hdfs.WebFS.Fetch")
	if loop == nil {
		t.Fatal("Fetch loop missing")
	}
	want := map[Triplet]bool{
		{Coordinator: "hdfs.WebFS.Fetch", Retried: "hdfs.WebFS.connect", Exception: "ConnectException"}:           false,
		{Coordinator: "hdfs.WebFS.Fetch", Retried: "hdfs.WebFS.getResponse", Exception: "SocketTimeoutException"}: false,
		{Coordinator: "hdfs.WebFS.Fetch", Retried: "hdfs.WebFS.getResponse", Exception: "EOFException"}:           false,
	}
	for _, tr := range loop.Triplets {
		if _, ok := want[tr]; ok {
			want[tr] = true
		}
		if tr.Exception == "AccessControlException" {
			t.Error("AccessControlException is caught-and-aborted; it must not be a trigger")
		}
		if tr.Exception == "FileNotFoundException" {
			t.Error("FileNotFoundException is caught-and-aborted; it must not be a trigger")
		}
	}
	for tr, seen := range want {
		if !seen {
			t.Errorf("missing triplet %+v (have %+v)", tr, loop.Triplets)
		}
	}
}

func TestExclusionRecordedInThrownHere(t *testing.T) {
	a := analyzeHDFS(t)
	loop := loopByCoordinator(a, "hdfs.WebFS.Fetch")
	if loop == nil {
		t.Fatal("Fetch loop missing")
	}
	if retried, ok := loop.ThrownHere["AccessControlException"]; !ok || retried {
		t.Errorf("AccessControlException should be recorded as thrown-but-not-retried, got %v/%v", retried, ok)
	}
	if retried := loop.ThrownHere["ConnectException"]; !retried {
		t.Error("ConnectException should be recorded as retried")
	}
}

func TestCalleesOfQueueCoordinator(t *testing.T) {
	a := analyzeHDFS(t)
	ts := a.CalleesOf("hdfs.Balancer.processTask")
	found := false
	for _, tr := range ts {
		if tr.Retried == "hdfs.Balancer.transferBlock" && tr.Exception == "ConnectException" {
			found = true
		}
	}
	if !found {
		t.Errorf("CalleesOf missed transferBlock triplet: %+v", ts)
	}
}

func TestCalleesOfStateMachineStep(t *testing.T) {
	a := analyzeHDFS(t)
	ts := a.CalleesOf("hdfs.ReconstructionProc.Step")
	names := map[string]bool{}
	for _, tr := range ts {
		names[tr.Retried] = true
	}
	if !names["hdfs.ReconstructionProc.readShards"] || !names["hdfs.ReconstructionProc.writeRecovered"] {
		t.Errorf("CalleesOf(Step) = %+v", ts)
	}
}

func TestCalleesOfUnknownMethod(t *testing.T) {
	a := analyzeHDFS(t)
	if got := a.CalleesOf("hdfs.NoSuch.method"); got != nil {
		t.Errorf("expected nil, got %+v", got)
	}
}

func TestRatioAnalysisCountsExclusions(t *testing.T) {
	a := analyzeHDFS(t)
	ratios, _ := RatioAnalysis([]*Analysis{a}, DefaultRatioOptions())
	var acl *ExceptionRatio
	for i := range ratios {
		if ratios[i].Exception == "AccessControlException" {
			acl = &ratios[i]
		}
	}
	if acl == nil {
		t.Fatal("AccessControlException not in ratio analysis")
	}
	if acl.Retried != 0 {
		t.Errorf("AccessControlException should never be retried in HDFS, got %d/%d", acl.Retried, acl.Total)
	}
}

// calleesFixture is a one-file app: a retry coordinator calling the
// hooked connect, plus filler functions that only grow the method index.
func calleesFixture(t *testing.T, filler int) *Analysis {
	t.Helper()
	var b strings.Builder
	b.WriteString(header + `
func run(ctx context.Context) error {
	var last error
	for retry := 0; retry < 3; retry++ {
		if err := connect(ctx); err != nil {
			last = err
			continue
		}
		return nil
	}
	return last
}
`)
	for i := 0; i < filler; i++ {
		fmt.Fprintf(&b, "\nfunc filler%d() int { return %d }\n", i, i)
	}
	a := analyzeSource(t, b.String())
	if len(a.Methods) != filler+2 {
		t.Fatalf("methods = %d, want %d", len(a.Methods), filler+2)
	}
	return a
}

// TestCalleesOfAllocsIndependentOfMethodCount: the short-name index is
// built once by the constructor, so a CalleesOf lookup allocates the
// same on an app of 3 methods as on one of 1,000.
func TestCalleesOfAllocsIndependentOfMethodCount(t *testing.T) {
	small, large := calleesFixture(t, 1), calleesFixture(t, 998)
	want := []Triplet{
		{Coordinator: "pkg.run", Retried: "pkg.connect", Exception: "AccessControlException"},
		{Coordinator: "pkg.run", Retried: "pkg.connect", Exception: "ConnectException"},
	}
	for _, a := range []*Analysis{small, large} {
		if got := a.CalleesOf("pkg.run"); !reflect.DeepEqual(got, want) {
			t.Fatalf("CalleesOf(pkg.run) = %+v, want %+v", got, want)
		}
	}
	allocs := func(a *Analysis) float64 {
		return testing.AllocsPerRun(100, func() { a.CalleesOf("pkg.run") })
	}
	if s, l := allocs(small), allocs(large); l != s {
		t.Fatalf("CalleesOf allocs: %v with 3 methods, %v with 1,000 — the lookup scales with the app", s, l)
	}
}

// TestCalleesOfResolvedOnce: a coordinator's triplets are resolved
// once per Analysis, so a warm job's lookups allocate nothing.
func TestCalleesOfResolvedOnce(t *testing.T) {
	a := calleesFixture(t, 1)
	first := a.CalleesOf("pkg.run")
	if n := testing.AllocsPerRun(100, func() {
		if got := a.CalleesOf("pkg.run"); &got[0] != &first[0] {
			t.Fatal("CalleesOf re-resolved a coordinator it had already resolved")
		}
	}); n != 0 {
		t.Fatalf("a repeated CalleesOf allocates %v objects, want 0", n)
	}
}

// TestCalleesOfConcurrent: the analysis cache shares one *Analysis
// across concurrent jobs, so CalleesOf must be safe to call from many
// goroutines at once (run under -race by make race).
func TestCalleesOfConcurrent(t *testing.T) {
	a := analyzeHDFS(t)
	coords := make([]string, 0, len(a.Methods))
	for name := range a.Methods {
		coords = append(coords, name)
	}
	sort.Strings(coords)
	want := make([][]Triplet, len(coords))
	for i, c := range coords {
		want[i] = a.CalleesOf(c)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range coords {
				i := (k + g*7) % len(coords)
				if got := a.CalleesOf(coords[i]); !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Sprintf("goroutine %d: CalleesOf(%s) = %+v, want %+v", g, coords[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
