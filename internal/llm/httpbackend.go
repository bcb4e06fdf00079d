// httpbackend.go is the OpenAI-compatible HTTP adapter: the one
// Transport in the repo that talks to a real socket. It sends the
// prompt chain as a chat-completions request and maps the wire's
// failure surface onto the errmodel classes the retry classifier
// already understands, so the resilience stack treats a real endpoint
// and the simulator identically:
//
//	429 Too Many Requests      → RateLimitedException (transient), with
//	                             the Retry-After header attached as a
//	                             resilience backoff hint
//	5xx                        → ServiceUnavailableException (transient)
//	context deadline/timeout   → SocketTimeoutException (transient)
//	connection refused / DNS   → BackendOutageException (permanent)
//	2xx with bad/empty body    → MalformedCompletionException (permanent)
//
// The adapter carries no fault model of its own — real networks supply
// their own — and no determinism promise: a topology with an http
// backend routes live, trading canonical-order admission for
// availability. Tests drive it
// against a local httptest stub; nothing here needs the internet.
package llm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"wasabi/internal/errmodel"
	"wasabi/internal/resilience"
)

// HTTPBackend delivers prompt chains to an OpenAI-compatible endpoint
// (POST {base}/v1/chat/completions).
type HTTPBackend struct {
	base   string
	model  string
	client *http.Client
}

// NewHTTPBackend returns an adapter for the endpoint at base (scheme +
// host, no trailing path). The default request timeout is 30s; override
// the whole client with SetClient for tests.
func NewHTTPBackend(base string) *HTTPBackend {
	return &HTTPBackend{
		base:   base,
		model:  "wasabi-reviewer",
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

// SetClient swaps the underlying http.Client (test seam; httptest
// servers hand out pre-wired clients).
func (h *HTTPBackend) SetClient(c *http.Client) { h.client = c }

// chatRequest and chatResponse are the minimal slice of the OpenAI chat
// wire format the adapter speaks.
type chatRequest struct {
	Model    string        `json:"model"`
	Messages []chatMessage `json:"messages"`
}

type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

type chatResponse struct {
	Choices []struct {
		Message chatMessage `json:"message"`
	} `json:"choices"`
}

// Do implements Transport. A nil return means the endpoint produced a
// well-formed completion for the file's prompt chain; the review
// answers themselves still come from the local model (a pure function
// of config, path and contents), which is what keeps routed output
// byte-identical across healthy backends.
func (h *HTTPBackend) Do(ctx context.Context, call Call) error {
	body, err := json.Marshal(chatRequest{
		Model: h.model,
		Messages: []chatMessage{
			{Role: "system", Content: "You analyze retry logic in source files."},
			{Role: "user", Content: fmt.Sprintf("review %s (attempt %d, %d bytes)", call.Path, call.Attempt, call.Bytes)},
		},
	})
	if err != nil {
		return errmodel.Newf("Exception", "llm: encode chat request for %s: %v", call.Path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/v1/chat/completions", bytes.NewReader(body))
	if err != nil {
		return errmodel.Newf("Exception", "llm: build request for %s: %v", call.Path, err)
	}
	req.Header.Set("Content-Type", "application/json")

	resp, err := h.client.Do(req)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded) || isClientTimeout(err):
			return errmodel.Newf("SocketTimeoutException", "llm: %s attempt %d timed out: %v", call.Path, call.Attempt, err)
		case errors.Is(err, context.Canceled):
			// Our own cancellation (hedge rival won) — pass it through so
			// the router releases the probe slot without a health verdict.
			return err
		default:
			// Refused connections, DNS failures, resets: the endpoint is
			// unreachable, and re-sending the same request won't fix that.
			return errmodel.Newf("BackendOutageException", "llm: endpoint %s unreachable: %v", h.base, err)
		}
	}
	// Drain a bounded remainder before close so net/http can reuse the
	// keep-alive connection: returning early on 429/5xx without reading
	// the body would burn the connection — and pay reconnect latency —
	// exactly when the endpoint is degraded.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck // best-effort drain
		resp.Body.Close()
	}()

	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		rlErr := errmodel.Newf("RateLimitedException", "llm: 429 on %s attempt %d", call.Path, call.Attempt)
		if hint := parseRetryAfter(resp.Header.Get("Retry-After")); hint > 0 {
			return resilience.WithRetryAfterHint(rlErr, hint)
		}
		return rlErr
	case resp.StatusCode >= 500:
		return errmodel.Newf("ServiceUnavailableException", "llm: %d on %s attempt %d", resp.StatusCode, call.Path, call.Attempt)
	case resp.StatusCode != http.StatusOK:
		return errmodel.Newf("Exception", "llm: unexpected %d on %s", resp.StatusCode, call.Path)
	}

	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return errmodel.Newf("SocketTimeoutException", "llm: read completion for %s: %v", call.Path, err)
	}
	if _, err := decodeCompletion(raw); err != nil {
		return errmodel.Newf("MalformedCompletionException", "llm: %v for %s", err, call.Path)
	}
	return nil
}

// decodeCompletion parses a completion body that must carry a choice.
func decodeCompletion(raw []byte) (chatResponse, error) {
	var completion chatResponse
	if err := json.Unmarshal(raw, &completion); err != nil {
		return chatResponse{}, fmt.Errorf("unparseable completion: %w", err)
	}
	if len(completion.Choices) == 0 {
		return chatResponse{}, errors.New("empty completion")
	}
	return completion, nil
}

// isClientTimeout spots net/http's own timeout errors (client.Timeout
// fires a *url.Error with Timeout() == true rather than a context
// error).
func isClientTimeout(err error) bool {
	var te interface{ Timeout() bool }
	return errors.As(err, &te) && te.Timeout()
}

// parseRetryAfter parses the delay-seconds form of a Retry-After header
// (the HTTP-date form is ignored: simulated and stub servers speak
// seconds); a missing hint, or one too long for a time.Duration, just
// falls back to local backoff.
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.ParseInt(v, 10, 64)
	if err != nil || secs <= 0 || secs > math.MaxInt64/int64(time.Second) {
		return 0
	}
	return time.Duration(secs) * time.Second
}
