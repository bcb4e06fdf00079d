package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzAnalyzeRequest fuzzes the POST /v1/analyze body decoder. The seeds
// are the request bodies the server tests submit, and run under plain
// go test. Properties: the parser never panics; an accepted request has
// a 1–64-byte tenant outside the reserved "_" namespace and unique app
// codes; and re-encoding an accepted request parses back to the same
// request.
func FuzzAnalyzeRequest(f *testing.F) {
	for _, seed := range []string{
		``, `{}`, `{"apps":`, `{"apps":["NOPE"]}`, `{"apps":["HD"]}`,
		`{"apps":["HD","HD"]}`, `{"apps":["HD","HB"],"tenant":"alpha"}`,
		`{"tenant":"alpha"}`, `{"tenant":"beta"}`, `{"tenant":"late"}`,
		`{"tenant":"  "}`, `{"tenant":"_retired"}`, `{"tenant":"_anything"}`,
		`{"tenant":"log-tenant","apps":["HD"]}`, `{"tenant":"tenant-0"}`,
		`{"tenant":"trace-tenant-0","apps":["HD"]}`,
		`{"tenant":"` + strings.Repeat("x", maxTenantLen+1) + `"}`,
		`{"apps":null,"tenant":null}`, `[]`, `"HD"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := parseAnalyzeRequest(body)
		if err != nil {
			return
		}
		if n := len(req.Tenant); n < 1 || n > maxTenantLen {
			t.Fatalf("accepted %q with a %d-byte tenant", body, n)
		}
		if strings.HasPrefix(req.Tenant, "_") {
			t.Fatalf("accepted %q with reserved tenant %q", body, req.Tenant)
		}
		seen := map[string]bool{}
		for _, code := range req.Apps {
			if seen[code] {
				t.Fatalf("accepted %q with app %q twice", body, code)
			}
			seen[code] = true
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted %q, but it does not re-encode: %v", body, err)
		}
		again, err := parseAnalyzeRequest(enc)
		if err != nil {
			t.Fatalf("accepted %q, but its encoding %s is rejected: %v", body, enc, err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("accepted %q as %+v, but its encoding %s parses as %+v", body, req, enc, again)
		}
	})
}
