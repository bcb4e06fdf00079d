// transport.go is the fault-modeled transport layer between the client's
// prompt chain and the simulated model — the reproduction's stand-in for
// the HTTPS path to a real LLM endpoint.
//
// The paper's own thesis (§1, §3.1.1) is that retry is where systems go
// wrong, and LLM backends fail in exactly the transient/permanent mix —
// rate limits, timeouts, 5xx, malformed completions, hard outages — that
// resilience frameworks exist to absorb. The transport models that mix
// deterministically: every fault decision is a pure function of
// (seed, file path, attempt, fault kind), so a chaos run reproduces
// byte-for-byte at any worker count. One Call represents one delivery
// attempt of a whole per-file prompt chain (a retry re-sends the chain,
// which is why the §4.3 cost model still charges each file once).
package llm

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"wasabi/internal/errmodel"
	"wasabi/internal/obs"
)

// Exception classes served by the faulty transport. Transient classes
// descend from IOException (retry-worthy wire trouble); permanent classes
// descend from Exception directly.
func init() {
	errmodel.Declare("RateLimitedException", "IOException")        // HTTP 429
	errmodel.Declare("ServiceUnavailableException", "IOException") // HTTP 5xx
	errmodel.Declare("BackendOutageException", "ConnectException")
	errmodel.Declare("MalformedCompletionException", "Exception")
}

// Call is one delivery attempt of a file's prompt chain.
type Call struct {
	// Path is the file under review (the fault-decision key).
	Path string
	// Ordinal is the review's canonical arrival index in the run — the
	// budget's settle sequence — used by outage windows.
	Ordinal int
	// Attempt is the 0-based delivery attempt.
	Attempt int
	// Bytes is the prompt-context size.
	Bytes int
}

// Transport delivers prompt chains to the model. A nil error means the
// completion arrived intact; errors carry errmodel classes so the retry
// classifier can tell transient wire trouble from permanent failure.
type Transport interface {
	Do(ctx context.Context, call Call) error
}

// perfect is the fault-free transport: every completion arrives.
type perfect struct{}

func (perfect) Do(context.Context, Call) error { return nil }

// Fault kinds, used as the `kind` label of llm_transport_faults_total.
const (
	FaultTimeout     = "timeout"
	FaultRateLimit   = "rate-limit"
	FaultServerError = "server-error"
	FaultMalformed   = "malformed"
	FaultOutage      = "outage"
)

// FaultProfile configures the fault mix of a FaultyTransport. Denominator
// fields inject their fault on a deterministic 1-in-N basis (0 disables):
// the three transient kinds are drawn independently per delivery attempt,
// so a retry usually clears them; Malformed is drawn once per file — the
// completion is delivered but unparseable, and re-sending the same prompt
// reproduces it, so it is permanent.
type FaultProfile struct {
	// TimeoutDenom injects request timeouts (transient).
	TimeoutDenom int
	// RateLimitDenom injects HTTP 429 rate limiting (transient).
	RateLimitDenom int
	// ServerErrorDenom injects HTTP 5xx responses (transient).
	ServerErrorDenom int
	// MalformedDenom injects unparseable completions (permanent, per file).
	MalformedDenom int
	// HardOutage takes the backend down for the whole run: every delivery
	// attempt fails permanently.
	HardOutage bool
	// OutageAfterFiles, when > 0, takes the backend down from the Nth
	// review onward (reviews with canonical ordinal >= N fail hard).
	OutageAfterFiles int
}

// String renders the profile in ParseFaultProfile's key=value format.
func (p FaultProfile) String() string {
	var parts []string
	add := func(k string, v int) {
		if v != 0 {
			parts = append(parts, k+"="+strconv.Itoa(v))
		}
	}
	add("timeout", p.TimeoutDenom)
	add("ratelimit", p.RateLimitDenom)
	add("servererror", p.ServerErrorDenom)
	add("malformed", p.MalformedDenom)
	if p.HardOutage {
		parts = append(parts, "outage")
	}
	add("outage-after", p.OutageAfterFiles)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Presets accepted by ParseFaultProfile, roughly calibrated by combined
// per-attempt transient fault probability.
var presets = map[string]FaultProfile{
	"none":   {},
	"light":  {TimeoutDenom: 60, RateLimitDenom: 60, ServerErrorDenom: 60}, // ~5% transient
	"heavy":  {TimeoutDenom: 15, RateLimitDenom: 15, ServerErrorDenom: 15}, // ~20% transient
	"outage": {HardOutage: true},
}

// ParseFaultProfile parses a fault-profile spec: a preset name ("none",
// "light", "heavy", "outage") or a comma-separated key=value list with
// keys timeout, ratelimit, servererror, malformed (1-in-N denominators),
// outage (bare flag) and outage-after (review ordinal). Examples:
//
//	light
//	timeout=60,ratelimit=60,servererror=60
//	heavy,malformed=200,outage-after=120
//
// Presets may be combined with overrides; later entries win.
func ParseFaultProfile(spec string) (FaultProfile, error) {
	var p FaultProfile
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "outage" {
			p.HardOutage = true
			continue
		}
		if preset, ok := presets[part]; ok {
			preset.OutageAfterFiles = p.OutageAfterFiles // presets never clear an explicit window
			if p.HardOutage {
				preset.HardOutage = true
			}
			p = preset
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return FaultProfile{}, fmt.Errorf("llm: fault profile %q: entry %q is neither a preset nor key=value", spec, part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 0 {
			return FaultProfile{}, fmt.Errorf("llm: fault profile %q: %s wants a non-negative integer, got %q", spec, k, v)
		}
		switch strings.TrimSpace(k) {
		case "timeout":
			p.TimeoutDenom = n
		case "ratelimit":
			p.RateLimitDenom = n
		case "servererror":
			p.ServerErrorDenom = n
		case "malformed":
			p.MalformedDenom = n
		case "outage-after":
			p.OutageAfterFiles = n
		default:
			return FaultProfile{}, fmt.Errorf("llm: fault profile %q: unknown key %q", spec, k)
		}
	}
	return p, nil
}

// IsTransient reports whether a transport error is worth retrying:
// timeouts, rate limits and server errors clear on re-send; outages and
// malformed completions do not. The cause chain is searched so
// transparent wrappers (e.g. a Retry-After hint from the HTTP adapter)
// don't hide the class.
func IsTransient(err error) bool {
	return errmodel.CauseIsClass(err, "SocketTimeoutException") ||
		errmodel.CauseIsClass(err, "RateLimitedException") ||
		errmodel.CauseIsClass(err, "ServiceUnavailableException")
}

// FaultyTransport decorates a transport with a seeded fault model.
type FaultyTransport struct {
	inner   Transport
	profile FaultProfile
	seed    uint64
	reg     *obs.Registry
}

// NewFaultyTransport wraps inner with the given profile. Fault decisions
// are keyed by seed, so the same (seed, profile, corpus) triple replays
// the same faults.
func NewFaultyTransport(inner Transport, profile FaultProfile, seed uint64) *FaultyTransport {
	if inner == nil {
		inner = perfect{}
	}
	return &FaultyTransport{inner: inner, profile: profile, seed: seed}
}

// Instrument attaches a metrics registry (nil is fine) and returns the
// transport for chaining.
func (t *FaultyTransport) Instrument(reg *obs.Registry) *FaultyTransport {
	t.reg = reg
	return t
}

// Do injects the profile's faults; calls that draw no fault are delivered
// through the inner transport.
func (t *FaultyTransport) Do(ctx context.Context, call Call) error {
	if kind := t.faultAt(call.Path, call.Ordinal, call.Attempt); kind != "" {
		t.reg.Counter("llm_transport_faults_total", "kind", kind).Inc()
		return faultError(kind, call)
	}
	return t.inner.Do(ctx, call)
}

// faultError builds the typed error for a fault kind.
func faultError(kind string, call Call) error {
	switch kind {
	case FaultTimeout:
		return errmodel.Newf("SocketTimeoutException", "llm: %s attempt %d timed out", call.Path, call.Attempt)
	case FaultRateLimit:
		return errmodel.Newf("RateLimitedException", "llm: 429 on %s attempt %d", call.Path, call.Attempt)
	case FaultServerError:
		return errmodel.Newf("ServiceUnavailableException", "llm: 5xx on %s attempt %d", call.Path, call.Attempt)
	case FaultMalformed:
		return errmodel.Newf("MalformedCompletionException", "llm: unparseable completion for %s", call.Path)
	case FaultOutage:
		return errmodel.Newf("BackendOutageException", "llm: endpoint down (review %d)", call.Ordinal)
	}
	return errmodel.Newf("Exception", "llm: unknown fault kind %s", kind)
}

// faultAt decides which fault, if any, a delivery attempt draws. The
// decision is a pure function of (seed, path, ordinal, attempt): Do
// executes this schedule, and a replayable router's settle walks it
// attempt by attempt without executing anything.
func (t *FaultyTransport) faultAt(path string, ordinal, attempt int) string {
	p := t.profile
	if p.HardOutage || (p.OutageAfterFiles > 0 && ordinal >= p.OutageAfterFiles) {
		return FaultOutage
	}
	salt := strconv.Itoa(attempt)
	if t.bucket(path, "t:"+salt, p.TimeoutDenom) {
		return FaultTimeout
	}
	if t.bucket(path, "r:"+salt, p.RateLimitDenom) {
		return FaultRateLimit
	}
	if t.bucket(path, "s:"+salt, p.ServerErrorDenom) {
		return FaultServerError
	}
	// Delivery succeeds; a malformed completion is drawn per file, since
	// re-sending the same prompt reproduces the same garbage.
	if t.bucket(path, "m", p.MalformedDenom) {
		return FaultMalformed
	}
	return ""
}

// bucket is the transport's deterministic 1-in-denom draw.
func (t *FaultyTransport) bucket(path, salt string, denom int) bool {
	if denom <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte("transport"))
	h.Write([]byte{0})
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write([]byte(salt))
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(t.seed >> (8 * i))
	}
	h.Write(seed[:])
	return h.Sum64()%uint64(denom) == 0
}
