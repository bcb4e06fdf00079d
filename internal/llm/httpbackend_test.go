package llm

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wasabi/internal/errmodel"
	"wasabi/internal/resilience"
)

// stubCompletion is a minimal well-formed chat completion.
const stubCompletion = `{"choices":[{"message":{"role":"assistant","content":"ok"}}]}`

// newStub starts an httptest chat-completions endpoint driven by
// handler and returns an adapter wired to it.
func newStub(t *testing.T, handler http.HandlerFunc) *HTTPBackend {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	h := NewHTTPBackend(srv.URL)
	h.SetClient(srv.Client())
	return h
}

func TestHTTPBackendSuccess(t *testing.T) {
	var got chatRequest
	h := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/chat/completions" {
			t.Errorf("path = %q", r.URL.Path)
		}
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Errorf("decode request: %v", err)
		}
		w.Write([]byte(stubCompletion))
	})
	if err := h.Do(context.Background(), Call{Path: "a.go", Attempt: 1, Bytes: 42}); err != nil {
		t.Fatal(err)
	}
	if got.Model != "wasabi-reviewer" || len(got.Messages) != 2 {
		t.Errorf("request = %+v", got)
	}
}

func TestHTTPBackendErrorMapping(t *testing.T) {
	cases := []struct {
		name      string
		status    int
		body      string
		class     string
		transient bool
	}{
		{"429 rate limited", http.StatusTooManyRequests, "slow down", "RateLimitedException", true},
		{"503 unavailable", http.StatusServiceUnavailable, "down", "ServiceUnavailableException", true},
		{"500 server error", http.StatusInternalServerError, "boom", "ServiceUnavailableException", true},
		{"404 unexpected", http.StatusNotFound, "lost", "Exception", false},
		{"200 garbage body", http.StatusOK, "not json{", "MalformedCompletionException", false},
		{"200 empty choices", http.StatusOK, `{"choices":[]}`, "MalformedCompletionException", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newStub(t, func(w http.ResponseWriter, _ *http.Request) {
				w.WriteHeader(c.status)
				w.Write([]byte(c.body))
			})
			err := h.Do(context.Background(), Call{Path: "a.go"})
			if !errmodel.CauseIsClass(err, c.class) {
				t.Fatalf("err = %v, want class %s", err, c.class)
			}
			if got := IsTransient(err); got != c.transient {
				t.Errorf("IsTransient = %v, want %v", got, c.transient)
			}
		})
	}
}

// TestHTTPBackendRetryAfterHint: a 429 carrying Retry-After surfaces the
// server's delay as a resilience backoff hint without hiding the
// exception class — the wire end of the hint-floors-backoff contract.
func TestHTTPBackendRetryAfterHint(t *testing.T) {
	h := newStub(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	err := h.Do(context.Background(), Call{Path: "a.go"})
	hint, ok := resilience.RetryAfterHint(err)
	if !ok || hint != 7*time.Second {
		t.Fatalf("hint = %v, %v, want 7s", hint, ok)
	}
	if !errmodel.CauseIsClass(err, "RateLimitedException") {
		t.Errorf("hinted err lost its class: %v", err)
	}
	if !IsTransient(err) {
		t.Error("hinted 429 must stay transient (retryable)")
	}
}

func TestHTTPBackendRetryAfterUnparseable(t *testing.T) {
	for _, v := range []string{"", "soon", "-3", "0", "Wed, 21 Oct 2015 07:28:00 GMT"} {
		v := v
		h := newStub(t, func(w http.ResponseWriter, _ *http.Request) {
			if v != "" {
				w.Header().Set("Retry-After", v)
			}
			w.WriteHeader(http.StatusTooManyRequests)
		})
		err := h.Do(context.Background(), Call{Path: "a.go"})
		if _, ok := resilience.RetryAfterHint(err); ok {
			t.Errorf("Retry-After %q produced a hint", v)
		}
		if !errmodel.CauseIsClass(err, "RateLimitedException") {
			t.Errorf("Retry-After %q: err = %v, want RateLimitedException", v, err)
		}
	}
}

// TestHTTPBackendUnreachable: a refused connection maps to the permanent
// outage class — re-sending the same request cannot fix it.
func TestHTTPBackendUnreachable(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	url := srv.URL
	srv.Close() // nothing listens here anymore
	h := NewHTTPBackend(url)
	err := h.Do(context.Background(), Call{Path: "a.go"})
	if !errmodel.CauseIsClass(err, "BackendOutageException") {
		t.Fatalf("err = %v, want BackendOutageException", err)
	}
	if IsTransient(err) {
		t.Error("outage must be permanent")
	}
}

// TestHTTPBackendTimeout: a client-side timeout maps to the transient
// socket-timeout class.
func TestHTTPBackendTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	h := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	})
	h.SetClient(&http.Client{Timeout: 20 * time.Millisecond})
	err := h.Do(context.Background(), Call{Path: "a.go"})
	if !errmodel.CauseIsClass(err, "SocketTimeoutException") {
		t.Fatalf("err = %v, want SocketTimeoutException", err)
	}
	if !IsTransient(err) {
		t.Error("timeouts must be transient")
	}
}

// TestHTTPBackendCancellationPassthrough: our own context cancellation
// is returned bare — the router must see context.Canceled (no verdict),
// not a backend failure class.
func TestHTTPBackendCancellationPassthrough(t *testing.T) {
	started := make(chan struct{})
	unblock := make(chan struct{})
	defer close(unblock)
	h := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server watches the connection (and sees
		// the client hang up) while we hold the response open.
		io.Copy(io.Discard, r.Body)
		close(started)
		select {
		case <-r.Context().Done():
		case <-unblock:
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	err := h.Do(ctx, Call{Path: "a.go"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled passed through", err)
	}
}

// TestRoutedHTTPFailover: end-to-end through the router — a dead HTTP
// primary fails over to a healthy HTTP secondary, exercising the same
// adapter the -llm-backends http kind builds.
func TestRoutedHTTPFailover(t *testing.T) {
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(stubCompletion))
	}))
	t.Cleanup(good.Close)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	cfg := DefaultConfig()
	var err error
	cfg.Backends, err = ParseBackends("primary=http:" + deadURL + ";secondary=http:" + good.URL)
	if err != nil {
		t.Fatal(err)
	}
	rev := NewClient(cfg).ReviewSnapshotAt(memFile(t, "mem.go", "package mem\n"), -1, 0)
	if rev.Degraded {
		t.Fatalf("review degraded: %+v", rev)
	}
	if rev.Backend != "secondary" {
		t.Errorf("winning backend = %q, want secondary", rev.Backend)
	}
}
