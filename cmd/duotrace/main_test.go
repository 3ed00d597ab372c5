package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"duo/internal/trace"
)

// recordedAttack emits a miniature but structurally faithful attack trace:
// attack.run → 2 rounds → sparsetransfer + sparsequery → retrieve leaves,
// with the billing attrs the real instrumentation writes.
func recordedAttack(queriesPerRound []int64) *trace.Tracer {
	tr := trace.New("duotrace-test")
	run := tr.Start(nil, "attack.run")
	var total int64
	for i, q := range queriesPerRound {
		round := tr.Start(run, "round")
		round.SetInt("round", int64(i))
		st := tr.Start(round, "sparsetransfer")
		st.End()
		sq := tr.Start(round, "sparsequery")
		var billed int64
		for billed < q {
			step := tr.Start(sq, "query.step")
			leaf := tr.Start(step, "retrieve")
			n := int64(2)
			if q-billed < 2 {
				n = q - billed
			}
			leaf.SetInt("queries", n)
			leaf.SetStr("outcome", "ok")
			leaf.End()
			billed += n
			step.SetFloat("T", 1.0/float64(billed))
			step.End()
		}
		sq.End()
		round.SetInt("round_queries", billed)
		round.SetFloat("T", 1.0/float64(billed))
		round.End()
		total += billed
	}
	run.SetInt("queries_total", total)
	run.End()
	return tr
}

func writeTraceFile(t *testing.T, tr *trace.Tracer, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummarizeReconcilesBudget(t *testing.T) {
	path := writeTraceFile(t, recordedAttack([]int64{10, 6}), "run.jsonl")
	var out bytes.Buffer
	if err := run([]string{"summarize", path}, &out); err != nil {
		t.Fatalf("summarize failed: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{
		"2 round(s), 16 queries billed",
		"round 0: 10 queries",
		"round 1: 6 queries",
		"16 of 16 billed queries on retrieve leaves (100.0%)",
		"critical path:",
		"attack.run",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summarize output missing %q:\n%s", want, s)
		}
	}
	// The per-stage rollup is a map of six span names; its rows must
	// come out sorted, not in the order the map is walked.
	_, rollup, _ := strings.Cut(s, "per-stage rollup")
	rollup, _, _ = strings.Cut(rollup, "\n\n")
	var stages []string
	for _, line := range strings.Split(rollup, "\n")[1:] {
		stages = append(stages, strings.Fields(line)[0])
	}
	if got, want := strings.Join(stages, " "), "attack.run query.step retrieve round sparsequery sparsetransfer"; got != want {
		t.Errorf("rollup rows %q, want %q", got, want)
	}
}

func TestSummarizeFailsOnUnattributedQueries(t *testing.T) {
	// Tamper with the run total so the leaves no longer cover it.
	tr := recordedAttack([]int64{4})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(buf.String(), `"queries_total":4`, `"queries_total":7`, 1)
	if tampered == buf.String() {
		t.Fatal("tamper target not found in dump")
	}
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"summarize", path}, &out); err == nil {
		t.Errorf("summarize accepted a trace with unattributed queries:\n%s", out.String())
	}
}

func TestSummarizeNodeTraceSkipsAttribution(t *testing.T) {
	tr := trace.New("node")
	sp := tr.Start(nil, "node.serve")
	sp.SetInt("m", 5)
	sp.End()
	path := writeTraceFile(t, tr, "node.jsonl")
	var out bytes.Buffer
	if err := run([]string{"summarize", path}, &out); err != nil {
		t.Fatalf("summarize failed on node-side trace: %v", err)
	}
	if !strings.Contains(out.String(), "skipping query attribution") {
		t.Errorf("node-side trace not recognized:\n%s", out.String())
	}
}

func TestDiffIdenticalAndDiverging(t *testing.T) {
	a := writeTraceFile(t, recordedAttack([]int64{8}), "a.jsonl")
	b := writeTraceFile(t, recordedAttack([]int64{8}), "b.jsonl")
	c := writeTraceFile(t, recordedAttack([]int64{8, 4}), "c.jsonl")

	var out bytes.Buffer
	if err := run([]string{"diff", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "IDENTICAL") {
		t.Errorf("identical runs not detected:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"diff", a, c}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "traces differ") || !strings.Contains(s, "round") {
		t.Errorf("diverging runs not reported:\n%s", s)
	}
}

func TestBadUsage(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		nil,
		{"summarize"},
		{"diff", "one.jsonl"},
		{"frobnicate", "x"},
		{"summarize", filepath.Join(t.TempDir(), "missing.jsonl")},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
