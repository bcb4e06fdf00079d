package report

import (
	"encoding/json"
	"math"
	"strconv"
)

// AppendIndent appends doc to dst as indented JSON at the given depth
// and returns the extended buffer. The bytes equal
// json.MarshalIndent(doc, prefix, "  ") with prefix = depth × "  ", so
// a document can be written straight into an enclosing indented value
// (the daemon's job view nests it at depth 1). It writes the schema
// field by field instead of going through reflection and a re-indent
// pass, which is what makes a warm job's report cheap to render.
// doc.Usage.CostUSD must be finite; Render and Marshal report an error
// otherwise.
func AppendIndent(dst []byte, doc *Document, depth int) []byte {
	w := writer{buf: dst, level: depth}
	w.document(doc)
	return w.buf
}

// writer appends JSON values in encoding/json's indented layout: every
// member or element on its own line, indented two spaces per level,
// and empty objects and arrays rendered compactly as {} and [].
type writer struct {
	buf   []byte
	level int
	// empty is true while the innermost open object or array has no
	// member yet.
	empty bool
}

func (w *writer) newline() {
	w.buf = append(w.buf, '\n')
	for i := 0; i < w.level; i++ {
		w.buf = append(w.buf, "  "...)
	}
}

func (w *writer) open(c byte) {
	w.buf = append(w.buf, c)
	w.level++
	w.empty = true
}

func (w *writer) close(c byte) {
	w.level--
	if !w.empty {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.empty = false
}

// elem starts the next array element.
func (w *writer) elem() {
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.newline()
	w.empty = false
}

// key starts the next object member; name needs no escaping.
func (w *writer) key(name string) {
	w.elem()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, `": `...)
}

// str appends s as a JSON string. A string of printable ASCII with
// nothing to escape is copied as is; any other goes through
// json.Marshal, which escapes quotes, backslashes, HTML characters,
// control characters and U+2028/U+2029 and replaces invalid UTF-8.
func (w *writer) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.buf = append(w.buf, q...)
			return
		}
	}
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, '"')
}

func (w *writer) int(v int64) { w.buf = strconv.AppendInt(w.buf, v, 10) }

func (w *writer) bool(v bool) { w.buf = strconv.AppendBool(w.buf, v) }

// float appends f the way encoding/json does: shortest representation,
// exponent form only outside [1e-6, 1e21), with a one-digit negative
// exponent written without its leading zero.
func (w *writer) float(f float64) {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.buf = strconv.AppendFloat(w.buf, f, format, -1, 64)
	if n := len(w.buf); format == 'e' && n >= 4 && w.buf[n-4] == 'e' && w.buf[n-3] == '-' && w.buf[n-2] == '0' {
		w.buf[n-2] = w.buf[n-1]
		w.buf = w.buf[:n-1]
	}
}

// list appends s as an array, or null when s is nil, writing each
// element with each.
func list[T any](w *writer, s []T, each func(*writer, *T)) {
	if s == nil {
		w.buf = append(w.buf, "null"...)
		return
	}
	w.open('[')
	for i := range s {
		w.elem()
		each(w, &s[i])
	}
	w.close(']')
}

func (w *writer) document(doc *Document) {
	w.open('{')
	w.key("schema")
	w.str(doc.Schema)
	w.key("apps")
	list(w, doc.Apps, (*writer).app)
	w.key("if_ratios")
	list(w, doc.IFRatios, (*writer).ratio)
	w.key("if_bugs")
	list(w, doc.IFBugs, (*writer).bug)
	w.key("llm_usage")
	w.open('{')
	w.key("calls")
	w.int(int64(doc.Usage.Calls))
	w.key("tokens_in")
	w.int(doc.Usage.TokensIn)
	w.key("cost_usd")
	w.float(doc.Usage.CostUSD)
	w.close('}')
	w.key("degraded")
	w.bool(doc.Degraded)
	w.close('}')
}

func (w *writer) app(a *App) {
	w.open('{')
	w.key("code")
	w.str(a.Code)
	w.key("name")
	w.str(a.Name)
	w.key("structures")
	list(w, a.Structures, (*writer).structure)
	w.key("bugs")
	list(w, a.Bugs, (*writer).bug)
	w.key("coverage")
	w.coverage(&a.Coverage)
	if len(a.TruncatedFiles) > 0 {
		w.key("truncated_files")
		list(w, a.TruncatedFiles, func(w *writer, s *string) { w.str(*s) })
	}
	if len(a.DegradedFiles) > 0 {
		w.key("degraded_files")
		list(w, a.DegradedFiles, (*writer).degradedFile)
	}
	w.close('}')
}

func (w *writer) structure(s *Structure) {
	w.open('{')
	w.key("coordinator")
	w.str(s.Coordinator)
	w.key("file")
	w.str(s.File)
	w.key("mechanism")
	w.str(s.Mechanism)
	w.key("found_by_codeql")
	w.bool(s.ByCodeQL)
	w.key("found_by_llm")
	w.bool(s.ByLLM)
	w.key("injectable_triplets")
	w.int(int64(s.Triplets))
	w.close('}')
}

func (w *writer) bug(b *Bug) {
	w.open('{')
	w.key("workflow")
	w.str(b.Workflow)
	w.key("kind")
	w.str(b.Kind)
	w.key("coordinator")
	w.str(b.Coordinator)
	w.key("details")
	w.str(b.Details)
	w.close('}')
}

func (w *writer) coverage(c *Coverage) {
	w.open('{')
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"tests_total", c.TestsTotal},
		{"tests_covering_retry", c.TestsCoveringRetry},
		{"structures_total", c.StructuresTotal},
		{"structures_tested", c.StructuresTested},
		{"plan_entries", c.PlanEntries},
		{"planned_runs", c.PlannedRuns},
		{"naive_runs", c.NaiveRuns},
		{"injection_runs_failed", c.RunsFailed},
	} {
		w.key(f.name)
		w.int(int64(f.v))
	}
	w.close('}')
}

func (w *writer) degradedFile(d *DegradedFile) {
	w.open('{')
	w.key("file")
	w.str(d.File)
	w.key("reason")
	w.str(d.Reason)
	w.close('}')
}

func (w *writer) ratio(r *Ratio) {
	w.open('{')
	w.key("exception")
	w.str(r.Exception)
	w.key("retried")
	w.int(int64(r.Retried))
	w.key("total")
	w.int(int64(r.Total))
	w.close('}')
}
