package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var badmodDir = filepath.Join("testdata", "badmod")

// TestBadModuleFindings drives the CLI against the known-bad fixture
// module and pins the exit code and the diagnostic line format.
func TestBadModuleFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(badmodDir, nil, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d diagnostics, want 2:\n%s", len(lines), stdout.String())
	}
	format := regexp.MustCompile(`^bad\.go:\d+:\d+: \[(detrand|walltime)\] .+$`)
	for _, ln := range lines {
		if !format.MatchString(ln) {
			t.Errorf("diagnostic %q does not match file:line:col: [rule] message", ln)
		}
	}
	for _, rule := range []string{"detrand", "walltime"} {
		if !strings.Contains(stdout.String(), "["+rule+"]") {
			t.Errorf("missing a %s finding in:\n%s", rule, stdout.String())
		}
	}
	if !strings.Contains(stderr.String(), "2 finding(s)") {
		t.Errorf("stderr summary missing: %q", stderr.String())
	}
}

// TestRulesSubset checks -rules restricts the run to the named analyzers.
func TestRulesSubset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(badmodDir, []string{"-rules", "walltime"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[walltime]") || strings.Contains(out, "[detrand]") {
		t.Errorf("-rules walltime output wrong:\n%s", out)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(badmodDir, []string{"-rules", "billedquery"}, &stdout, &stderr); code != 0 {
		t.Errorf("-rules billedquery on badmod: exit %d, want 0 (no attack-path packages there)\n%s", code, stdout.String())
	}

	if code := run(badmodDir, []string{"-rules", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown rule: exit %d, want 2", code)
	}
}

// TestJSONOutput checks -json emits machine-readable diagnostics carrying
// the same positions as the text form.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(badmodDir, []string{"-json"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Rule    string `json:"rule"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if len(diags) != 2 {
		t.Fatalf("got %d JSON diagnostics, want 2", len(diags))
	}
	for _, d := range diags {
		if d.File != "bad.go" || d.Line <= 0 || d.Col <= 0 || d.Rule == "" || d.Message == "" {
			t.Errorf("incomplete JSON diagnostic: %+v", d)
		}
	}
}

// TestListRules checks -list names every analyzer, one per line, in
// registry order.
func TestListRules(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(badmodDir, []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit %d, want 0", code)
	}
	want := []string{"detrand", "walltime", "billedquery", "telemetryro", "gobsymmetry"}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d rules, want %d:\n%s", len(lines), len(want), stdout.String())
	}
	for i, rule := range want {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != rule {
			t.Errorf("-list line %d = %q, want rule %s", i, lines[i], rule)
		}
	}
}
