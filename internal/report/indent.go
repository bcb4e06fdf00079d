package report

import (
	"strconv"

	"wasabi/internal/jsonwrite"
)

// AppendIndent appends doc to dst as indented JSON at the given depth
// and returns the extended buffer. The bytes equal
// json.MarshalIndent(doc, prefix, "  ") with prefix = depth × "  ", so
// a document can be written straight into an enclosing indented value
// (the daemon's job view nests it at depth 1). It writes the schema
// field by field (internal/jsonwrite) instead of going through
// reflection and a re-indent pass, which is what makes a warm job's
// report cheap to render. doc.Usage.CostUSD must be finite; Render and
// Marshal report an error otherwise.
func AppendIndent(dst []byte, doc *Document, depth int) []byte {
	w := jsonwrite.At(depth)
	return document(dst, &w, doc)
}

// str and num append a string and an integer value.
func str(b []byte, s string) []byte { return jsonwrite.AppendString(b, s) }
func num(b []byte, v int) []byte    { return strconv.AppendInt(b, int64(v), 10) }

func document(b []byte, w *jsonwrite.Writer, doc *Document) []byte {
	b = w.Open(b, '{')
	b = str(w.Key(b, "schema"), doc.Schema)
	b = jsonwrite.List(w.Key(b, "apps"), w, doc.Apps, app)
	b = jsonwrite.List(w.Key(b, "if_ratios"), w, doc.IFRatios, ratio)
	b = jsonwrite.List(w.Key(b, "if_bugs"), w, doc.IFBugs, bug)
	b = w.Open(w.Key(b, "llm_usage"), '{')
	b = num(w.Key(b, "calls"), doc.Usage.Calls)
	b = strconv.AppendInt(w.Key(b, "tokens_in"), doc.Usage.TokensIn, 10)
	b = jsonwrite.AppendFloat(w.Key(b, "cost_usd"), doc.Usage.CostUSD)
	b = w.Close(b, '}')
	b = strconv.AppendBool(w.Key(b, "degraded"), doc.Degraded)
	return w.Close(b, '}')
}

func app(b []byte, w *jsonwrite.Writer, a *App) []byte {
	b = w.Open(b, '{')
	b = str(w.Key(b, "code"), a.Code)
	b = str(w.Key(b, "name"), a.Name)
	b = jsonwrite.List(w.Key(b, "structures"), w, a.Structures, structure)
	b = jsonwrite.List(w.Key(b, "bugs"), w, a.Bugs, bug)
	c := &a.Coverage
	b = w.Open(w.Key(b, "coverage"), '{')
	b = num(w.Key(b, "tests_total"), c.TestsTotal)
	b = num(w.Key(b, "tests_covering_retry"), c.TestsCoveringRetry)
	b = num(w.Key(b, "structures_total"), c.StructuresTotal)
	b = num(w.Key(b, "structures_tested"), c.StructuresTested)
	b = num(w.Key(b, "plan_entries"), c.PlanEntries)
	b = num(w.Key(b, "planned_runs"), c.PlannedRuns)
	b = num(w.Key(b, "naive_runs"), c.NaiveRuns)
	b = num(w.Key(b, "injection_runs_failed"), c.RunsFailed)
	b = w.Close(b, '}')
	if len(a.TruncatedFiles) > 0 {
		b = jsonwrite.Strings(w.Key(b, "truncated_files"), w, a.TruncatedFiles)
	}
	if len(a.DegradedFiles) > 0 {
		b = jsonwrite.List(w.Key(b, "degraded_files"), w, a.DegradedFiles, degradedFile)
	}
	return w.Close(b, '}')
}

func structure(b []byte, w *jsonwrite.Writer, s *Structure) []byte {
	b = w.Open(b, '{')
	b = str(w.Key(b, "coordinator"), s.Coordinator)
	b = str(w.Key(b, "file"), s.File)
	b = str(w.Key(b, "mechanism"), s.Mechanism)
	b = strconv.AppendBool(w.Key(b, "found_by_codeql"), s.ByCodeQL)
	b = strconv.AppendBool(w.Key(b, "found_by_llm"), s.ByLLM)
	b = num(w.Key(b, "injectable_triplets"), s.Triplets)
	return w.Close(b, '}')
}

func bug(b []byte, w *jsonwrite.Writer, g *Bug) []byte {
	b = w.Open(b, '{')
	b = str(w.Key(b, "workflow"), g.Workflow)
	b = str(w.Key(b, "kind"), g.Kind)
	b = str(w.Key(b, "coordinator"), g.Coordinator)
	b = str(w.Key(b, "details"), g.Details)
	return w.Close(b, '}')
}

func degradedFile(b []byte, w *jsonwrite.Writer, d *DegradedFile) []byte {
	b = w.Open(b, '{')
	b = str(w.Key(b, "file"), d.File)
	b = str(w.Key(b, "reason"), d.Reason)
	return w.Close(b, '}')
}

func ratio(b []byte, w *jsonwrite.Writer, r *Ratio) []byte {
	b = w.Open(b, '{')
	b = str(w.Key(b, "exception"), r.Exception)
	b = num(w.Key(b, "retried"), r.Retried)
	b = num(w.Key(b, "total"), r.Total)
	return w.Close(b, '}')
}
