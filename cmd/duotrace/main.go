// Command duotrace analyzes span-tree dumps recorded by the deterministic
// tracer (internal/trace): the JSONL files written by `duoattack -trace`
// or scraped from `retrievald -admin`'s /trace.jsonl endpoint.
//
//	duotrace summarize run.jsonl
//	duotrace diff before.jsonl after.jsonl
//
// summarize prints per-stage and per-round rollups, the critical path,
// and the query-budget attribution: every billed victim query must appear
// as a `queries` attribute on a leaf retrieve span, so the per-round sums
// reconcile exactly with the run's `queries_total`. A trace that does not
// reconcile is corrupt (or was produced by unbilled instrumentation) and
// summarize exits nonzero on it.
//
// diff compares two runs stage by stage and round by round — e.g. the
// same attack before and after a code change, or at different worker
// counts (with the default logical clock those must be identical).
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"

	"duo/internal/diffview"
	"duo/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "duotrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: duotrace summarize <trace.jsonl> | duotrace diff <a.jsonl> <b.jsonl>")
	}
	switch args[0] {
	case "summarize":
		if len(args) != 2 {
			return fmt.Errorf("usage: duotrace summarize <trace.jsonl>")
		}
		tr, err := loadTrace(args[1])
		if err != nil {
			return err
		}
		return summarize(w, args[1], tr)
	case "diff":
		if len(args) != 3 {
			return fmt.Errorf("usage: duotrace diff <a.jsonl> <b.jsonl>")
		}
		a, err := loadTrace(args[1])
		if err != nil {
			return err
		}
		b, err := loadTrace(args[2])
		if err != nil {
			return err
		}
		diff(w, [2]string{args[1], args[2]}, [2]*traceTree{a, b})
		return nil
	default:
		return fmt.Errorf("unknown subcommand %q (want summarize or diff)", args[0])
	}
}

// traceTree is a loaded span dump with parent/child structure resolved.
type traceTree struct {
	recs     []trace.Record
	byID     map[uint64]trace.Record
	children map[uint64][]trace.Record // parent span ID → children, ID order
	roots    []trace.Record            // spans with no local parent
}

func loadTrace(path string) (*traceTree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := trace.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return buildTree(recs), nil
}

func buildTree(recs []trace.Record) *traceTree {
	t := &traceTree{
		recs:     recs,
		byID:     make(map[uint64]trace.Record, len(recs)),
		children: make(map[uint64][]trace.Record),
	}
	for _, r := range recs {
		t.byID[r.ID] = r
	}
	// Records arrive in span-ID order, so child lists inherit it.
	for _, r := range recs {
		if _, ok := t.byID[r.Parent]; r.Parent != 0 && ok {
			t.children[r.Parent] = append(t.children[r.Parent], r)
		} else {
			t.roots = append(t.roots, r)
		}
	}
	return t
}

// dur is a span's tick (or nanosecond, under an injected clock) extent.
func dur(r trace.Record) int64 { return r.End - r.Start }

// fingerprint hashes the canonical re-encoding of the span dump; two runs
// with identical trees (the workers=1 vs workers=4 contract) match here.
func fingerprint(t *traceTree) string {
	var buf bytes.Buffer
	err := trace.WriteRecords(&buf, t.recs)
	return diffview.Fingerprint(buf.Bytes(), err)
}

// stageStat is one row of the per-stage rollup.
type stageStat struct {
	count int
	total int64
}

func stageRollup(t *traceTree) map[string]stageStat {
	out := make(map[string]stageStat)
	for _, r := range t.recs {
		s := out[r.Name]
		s.count++
		s.total += dur(r)
		out[r.Name] = s
	}
	return out
}

// sortedNames returns map keys in deterministic order for printing.
func sortedNames(m map[string]stageStat) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// roundInfo is the per-round reconciliation row.
type roundInfo struct {
	rec        trace.Record
	index      int64 // the round attr
	billed     int64 // the span's own round_queries attr
	attributed int64 // Σ queries over retrieve leaves beneath it
	leaves     int   // number of retrieve leaves beneath it
	finalT     float64
	hasT       bool
}

// rounds extracts each round span beneath run with its leaf attribution.
func (t *traceTree) rounds(run trace.Record) []roundInfo {
	var out []roundInfo
	for _, r := range t.children[run.ID] {
		if r.Name != "round" {
			continue
		}
		ri := roundInfo{rec: r}
		ri.index, _ = r.Int("round")
		ri.billed, _ = r.Int("round_queries")
		ri.finalT, ri.hasT = r.Float("T")
		t.walk(r.ID, func(d trace.Record) {
			if q, ok := d.Int("queries"); ok {
				ri.attributed += q
				ri.leaves++
			}
		})
		out = append(out, ri)
	}
	return out
}

// walk visits every descendant of the span with the given ID, in ID order.
func (t *traceTree) walk(id uint64, f func(trace.Record)) {
	for _, c := range t.children[id] {
		f(c)
		t.walk(c.ID, f)
	}
}

// criticalPath descends from r, at each level following the child with the
// largest extent, and returns the chain including r itself.
func (t *traceTree) criticalPath(r trace.Record) []trace.Record {
	path := []trace.Record{r}
	for {
		kids := t.children[path[len(path)-1].ID]
		if len(kids) == 0 {
			return path
		}
		best := kids[0]
		for _, k := range kids[1:] {
			if dur(k) > dur(best) {
				best = k
			}
		}
		path = append(path, best)
	}
}

func summarize(w io.Writer, path string, t *traceTree) error {
	fmt.Fprintf(w, "%s: %d spans, fingerprint %s\n", path, len(t.recs), fingerprint(t))
	if len(t.recs) == 0 {
		return fmt.Errorf("%s: empty trace", path)
	}

	fmt.Fprintf(w, "\nper-stage rollup (ticks with the default logical clock, ns under -traceclock):\n")
	stages := stageRollup(t)
	for _, n := range sortedNames(stages) {
		s := stages[n]
		fmt.Fprintf(w, "  %-18s ×%-5d total %-8d mean %.1f\n", n, s.count, s.total, float64(s.total)/float64(s.count))
	}

	// Reconcile every attack run in the dump; a node-side dump (retrievald
	// scrape) has no attack.run spans and skips straight past this.
	reconciled := true
	runs := 0
	for _, root := range t.roots {
		if root.Name != "attack.run" {
			continue
		}
		runs++
		total, _ := root.Int("queries_total")
		rounds := t.rounds(root)
		fmt.Fprintf(w, "\nattack.run span %d: %d round(s), %d queries billed\n", root.ID, len(rounds), total)
		if len(rounds) == 0 {
			reconciled = false
		}
		var attributed int64
		for _, ri := range rounds {
			line := fmt.Sprintf("  round %d: %d queries over %d retrieve span(s)", ri.index, ri.attributed, ri.leaves)
			if ri.hasT {
				line += fmt.Sprintf(", final 𝕋 %.4f", ri.finalT)
			}
			if ri.attributed != ri.billed {
				line += fmt.Sprintf("  [MISMATCH: round span billed %d]", ri.billed)
				reconciled = false
			}
			fmt.Fprintln(w, line)
			attributed += ri.attributed
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(attributed) / float64(total)
		}
		fmt.Fprintf(w, "  query attribution: %d of %d billed queries on retrieve leaves (%.1f%%)\n", attributed, total, pct)
		if attributed != total {
			reconciled = false
		}

		fmt.Fprintf(w, "  critical path:")
		for i, s := range t.criticalPath(root) {
			if i > 0 {
				fmt.Fprintf(w, " →")
			}
			fmt.Fprintf(w, " %s(%d)", s.Name, dur(s))
		}
		fmt.Fprintln(w)
	}
	if runs == 0 {
		fmt.Fprintf(w, "\nno attack.run spans (node-side trace); skipping query attribution\n")
		return nil
	}
	if !reconciled {
		return fmt.Errorf("%s: billed queries do not reconcile with retrieve-leaf attribution", path)
	}
	return nil
}

func diff(w io.Writer, names [2]string, ts [2]*traceTree) {
	fa, fb := fingerprint(ts[0]), fingerprint(ts[1])
	if fa == fb {
		fmt.Fprintf(w, "traces are IDENTICAL (fingerprint %s, %d spans)\n", fa, len(ts[0].recs))
		return
	}
	fmt.Fprintf(w, "traces differ: %s (%d spans) vs %s (%d spans)\n", fa, len(ts[0].recs), fb, len(ts[1].recs))

	fmt.Fprintf(w, "\nper-stage: count (a→b), total extent (a→b)\n")
	diffview.Rows(w, 18, stageRollup(ts[0]), stageRollup(ts[1]), func(a, b stageStat) string {
		return fmt.Sprintf("×%d→×%d  total %d→%d", a.count, b.count, a.total, b.total)
	})

	for i := range ts {
		for _, root := range ts[i].roots {
			if root.Name != "attack.run" {
				continue
			}
			total, _ := root.Int("queries_total")
			fmt.Fprintf(w, "\n%s attack.run: %d queries across %d rounds\n", names[i], total, len(ts[i].rounds(root)))
		}
	}
}
