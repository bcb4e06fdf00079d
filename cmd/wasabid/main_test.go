package main

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"testing"
)

// FuzzParsePriorities fuzzes the -tenant-priority flag grammar: no
// input panics, every accepted weight is positive, and an accepted
// list, rendered back as name=weight pairs, parses to the same map.
func FuzzParsePriorities(f *testing.F) {
	for _, seed := range []string{
		"", "interactive=3", "a=1,b=2", " a=1 , b=2 ", "a=1,a=4", "a=+2",
		"a", "=3", "a=0", "a=-1", "a=x", "a=1,", ",", "a=1=2",
		"a=99999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := parsePriorities(spec)
		if err != nil {
			return
		}
		pairs := make([]string, 0, len(got))
		for name, w := range got {
			if w < 1 {
				t.Fatalf("parsePriorities(%q) accepted weight %d for %q", spec, w, name)
			}
			pairs = append(pairs, fmt.Sprintf("%s=%d", name, w))
		}
		sort.Strings(pairs)
		rendered := strings.Join(pairs, ",")
		again, err := parsePriorities(rendered)
		if err != nil {
			t.Fatalf("parsePriorities(%q) accepted, but its rendering %q does not parse: %v", spec, rendered, err)
		}
		if !maps.Equal(got, again) {
			t.Fatalf("parsePriorities(%q) = %v, its rendering %q parses to %v", spec, got, rendered, again)
		}
	})
}
