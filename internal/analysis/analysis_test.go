package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureCases drives every analyzer over its fixture packages under
// testdata/src. Expectations are trailing comments of the form
//
//	// want `regex`
//
// where the regex is matched against the rendered "[rule] message". A
// fixture line with no want comment must produce no diagnostic, and every
// want must be consumed by exactly one diagnostic.
var fixtureCases = []struct {
	pkg       string
	analyzers []*Analyzer
}{
	{"detrand/fix", []*Analyzer{Detrand}},
	{"walltime/fix", []*Analyzer{Walltime}},
	{"billedquery/core", []*Analyzer{Billedquery}},
	{"billedquery/other", []*Analyzer{Billedquery}},
	{"telemetryro/telemetry", []*Analyzer{Telemetryro}},
	{"telemetryro/app", []*Analyzer{Telemetryro}},
	{"gobsymmetry/wire", []*Analyzer{Gobsymmetry}},
	{"gobsymmetry/naked", []*Analyzer{Gobsymmetry}},
	{"directive/fix", []*Analyzer{Detrand}},
}

func TestAnalyzersOnFixtures(t *testing.T) {
	loader, err := NewFixtureLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("fixture loader: %v", err)
	}
	for _, tc := range fixtureCases {
		t.Run(strings.ReplaceAll(tc.pkg, "/", "_"), func(t *testing.T) {
			pkgs, err := loader.Load("", tc.pkg)
			if err != nil {
				t.Fatalf("load %s: %v", tc.pkg, err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("load %s: got %d packages, want 1", tc.pkg, len(pkgs))
			}
			diags := Run(loader.Fset, pkgs, tc.analyzers, KnownRules())
			wants := collectWants(t, loader.Fset, pkgs[0].Files)

			for _, d := range diags {
				rendered := fmt.Sprintf("[%s] %s", d.Rule, d.Message)
				if !claimWant(wants, d.File, d.Line, rendered) {
					t.Errorf("unexpected diagnostic %s:%d: %s", filepath.Base(d.File), d.Line, rendered)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing diagnostic at %s:%d matching %q", filepath.Base(w.file), w.line, w.re.String())
				}
			}
		})
	}
}

// wantExp is one parsed expectation comment.
type wantExp struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("want `([^`]*)`")

// collectWants extracts every `want` expectation from the files' comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*wantExp {
	t.Helper()
	var out []*wantExp
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := fset.Position(c.Pos())
					out = append(out, &wantExp{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// claimWant marks the first unclaimed expectation on file:line whose regex
// matches rendered; it reports whether one was found.
func claimWant(wants []*wantExp, file string, line int, rendered string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(rendered) {
			w.matched = true
			return true
		}
	}
	return false
}

// TestRepoIsClean runs the full suite over the whole module: the tree must
// stay duolint-clean (CI also enforces this as a separate step; failing
// here gives contributors the finding list without leaving `go test`).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.Load(loader.Root(), "./...")
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	for _, d := range Run(loader.Fset, pkgs, All(), KnownRules()) {
		t.Errorf("%s", d.String())
	}
}

// TestSelect covers the -rules plumbing: known subsets resolve in order,
// unknown names are rejected by name.
func TestSelect(t *testing.T) {
	sel, bad := Select([]string{"walltime", "detrand"})
	if bad != "" || len(sel) != 2 || sel[0] != Walltime || sel[1] != Detrand {
		t.Fatalf("Select known: got %v bad=%q", sel, bad)
	}
	// mapiter and floateq were rules until they were retired (DESIGN §11);
	// naming one now is a typo like any other.
	for _, name := range []string{"nope", "mapiter", "floateq"} {
		if _, bad := Select([]string{"detrand", name}); bad != name {
			t.Errorf("Select unknown: bad=%q, want %s", bad, name)
		}
	}
}
