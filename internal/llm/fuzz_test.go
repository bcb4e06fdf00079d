package llm

import "testing"

// -llm-backends is the one routing flag, and a sim backend's profile is
// written in the fault-profile grammar inside it, so these two grammars
// are the whole parser surface at the flag boundary. Both fuzz
// targets check the same two properties: the parser never panics, and
// any spec it accepts renders to a string that parses back to the same
// rendering. The seeds are the grammar and error cases of the unit
// tests, and run under plain go test.

func FuzzParseBackends(f *testing.F) {
	for _, seed := range []string{
		"primary=sim:outage; secondary=sim;edge=http:http://127.0.0.1:8081",
		"primary=sim",
		"primary=sim:outage;secondary=sim",
		"primary=http:http://127.0.0.1:8081;fallback=sim",
		"a=sim:light;b=sim:heavy,malformed=25",
		"sim=sim:none",
		"", ";;", "sim", "=sim", "bad name=sim", "a=sim;a=sim",
		"a=ftp:x", "a=http", "a=sim:bogus-profile",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		specs, err := ParseBackends(spec)
		if err != nil {
			return
		}
		rendered := backendsString(specs)
		again, err := ParseBackends(rendered)
		if err != nil {
			t.Fatalf("ParseBackends(%q) accepted, but its rendering %q does not parse: %v", spec, rendered, err)
		}
		if got := backendsString(again); got != rendered {
			t.Fatalf("ParseBackends(%q): rendering %q re-renders as %q", spec, rendered, got)
		}
	})
}

func FuzzParseFaultProfile(f *testing.F) {
	for _, seed := range []string{
		"", "none", "light", "heavy", "outage",
		"timeout=10,malformed=50",
		"heavy,outage-after=120",
		"outage-after=5,light",
		"ratelimit=9, servererror=8",
		"bogus", "timeout", "timeout=x", "timeout=-1", "wat=3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultProfile(spec)
		if err != nil {
			return
		}
		rendered := p.String()
		again, err := ParseFaultProfile(rendered)
		if err != nil {
			t.Fatalf("ParseFaultProfile(%q) accepted, but its rendering %q does not parse: %v", spec, rendered, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("ParseFaultProfile(%q): rendering %q re-renders as %q", spec, rendered, got)
		}
	})
}
