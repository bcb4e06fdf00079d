package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pollInterval is how often a client polls a running job; it bounds the
// latency polling adds to a job at one interval.
const pollInterval = time.Millisecond

// daemon is one running wasabid process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// ready is the time from exec to the first successful /healthz.
	ready time.Duration
	// stderrDone closes once the daemon's stderr reaches EOF, which is
	// when the process has exited and the reader goroutine returned.
	stderrDone chan struct{}
	// health is the client that polled /healthz; stop closes its
	// connection.
	health *http.Client
}

var listenRE = regexp.MustCompile(`wasabid: listening on (\S+)`)

// startDaemon launches wasabid on a kernel-picked loopback port, reads
// the address it announces on stderr, and polls /healthz every
// pollInterval until it answers 200. The rest of stderr (the daemon's
// structured log) is drained and discarded, so the pipe never blocks it.
func startDaemon(bin string, args ...string) (*daemon, error) {
	start := time.Now()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start wasabid: %w", err)
	}
	d := &daemon{cmd: cmd, stderrDone: make(chan struct{}), health: newClient()}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stderrDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr) //nolint:errcheck // draining a pipe of an exiting process
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.stderrDone:
		d.wait()
		return nil, fmt.Errorf("wasabid exited before listening: %v", d.cmd.ProcessState)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("wasabid did not announce its listen address within 30s")
	}
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := d.health.Get(d.base + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(start)
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("wasabid at %s never became healthy: %v", d.base, err)
		}
		time.Sleep(pollInterval)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and waits for it to exit. It
// kills the process if the drain takes longer than a minute.
func (d *daemon) stop() (*os.ProcessState, error) {
	d.health.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return nil, fmt.Errorf("signal wasabid: %w", err)
	}
	select {
	case <-d.stderrDone:
	case <-time.After(time.Minute):
		d.kill()
		return nil, errors.New("wasabid did not drain within a minute of SIGTERM")
	}
	if err := d.wait(); err != nil {
		return d.cmd.ProcessState, fmt.Errorf("wasabid exited uncleanly: %w", err)
	}
	return d.cmd.ProcessState, nil
}

// kill ends the process without a drain and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-d.stderrDone
	d.wait() //nolint:errcheck // killed on purpose
}

func (d *daemon) wait() error {
	<-d.stderrDone
	return d.cmd.Wait()
}

// metrics fetches the daemon's /metrics exposition.
func (d *daemon) metrics() (string, error) {
	resp, err := d.health.Get(d.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// metricValue reads one unlabelled series from a /metrics exposition;
// an absent series reads as 0, as it would to a scraper.
func metricValue(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			return v
		}
	}
	return 0
}

// newClient returns an HTTP client that holds at most one keep-alive
// connection, so each benchmark client is one connection to the daemon.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}
}

// drain reads and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only freeing the connection
	resp.Body.Close()
}

// jobResult is what one client observed of one job. A non-nil err
// means the job missed: refused with 429, failed, lost to an HTTP error,
// or (after check) answered with the wrong report.
type jobResult struct {
	err error
	// latency runs from sending POST /v1/analyze until the done view is
	// read; submit is the POST round trip and fetch the final poll that
	// returned the report.
	latency, submit, fetch time.Duration
	polls                  int
	digest                 string
	// freshTokens is the LLM input the job spent that no cache served.
	freshTokens int64
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	FreshLLM *struct {
		TokensIn int64 `json:"tokens_in"`
	} `json:"fresh_llm"`
	Report json.RawMessage `json:"report"`
}

// runJob submits one job and polls it to completion over c.
func runJob(c *http.Client, base, tenant string, apps []string) jobResult {
	// Marshalling two strings cannot fail.
	body, _ := json.Marshal(struct {
		Tenant string   `json:"tenant"`
		Apps   []string `json:"apps,omitempty"`
	}{tenant, apps})
	start := time.Now()
	resp, err := c.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobResult{err: err}
	}
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	drain(resp)
	res := jobResult{submit: time.Since(start)}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		res.err = errors.New("refused with 429")
		return res
	case resp.StatusCode != http.StatusAccepted || err != nil:
		res.err = fmt.Errorf("submit: status %d, decode %v", resp.StatusCode, err)
		return res
	}
	for {
		t := time.Now()
		resp, err := c.Get(base + "/v1/jobs/" + v.ID)
		if err != nil {
			res.err = err
			return res
		}
		var cur jobView
		err = json.NewDecoder(resp.Body).Decode(&cur)
		drain(resp)
		res.polls++
		if resp.StatusCode != http.StatusOK || err != nil {
			res.err = fmt.Errorf("poll: status %d, decode %v", resp.StatusCode, err)
			return res
		}
		switch cur.State {
		case "done":
			res.latency, res.fetch = time.Since(start), time.Since(t)
			if cur.FreshLLM == nil {
				res.err = errors.New("done job carries no fresh_llm usage")
				return res
			}
			res.freshTokens = cur.FreshLLM.TokensIn
			res.digest, res.err = reportDigest(cur.Report)
			return res
		case "failed":
			res.err = fmt.Errorf("job %s failed: %s", v.ID, cur.Error)
			return res
		}
		time.Sleep(pollInterval)
	}
}

// check marks a job whose report differs from the reference as missed.
func (res *jobResult) check(key string, refs map[string]string) {
	if res.err == nil && res.digest != refs[key] {
		res.err = fmt.Errorf("report for %s has digest %s, want %s", key, res.digest, refs[key])
	}
}

// reportDigest is the sha256 of a report's compact JSON encoding. The
// daemon re-indents the report inside the job view, so digests are
// taken over the compact form, which both the view and report.Marshal
// reduce to.
func reportDigest(raw []byte) (string, error) {
	if len(raw) == 0 {
		return "", errors.New("done job carries no report")
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return "", fmt.Errorf("report is not JSON: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}
