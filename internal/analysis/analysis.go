// Package analysis is a small, dependency-free static-analysis framework
// (go/parser + go/ast + go/types only) plus the project-specific analyzers
// that enforce this repository's load-bearing contracts:
//
//   - the determinism contract (DESIGN.md §9): bitwise-identical results at
//     any worker count, all randomness through a seeded *rand.Rand, no
//     wall-clock reads in computation paths;
//   - the query-billing invariant: every victim Retrieve/RetrieveBatch in
//     the attack path is billed against the query budget — the property
//     that makes DUO's query-efficiency numbers measurable;
//   - the write-only telemetry rule (DESIGN.md §10): instruments are
//     recorded, never read back into any computation.
//
// Tests enforce these contracts only where a test happens to look; the
// analyzers in this package enforce them at every call site, forever. The
// cmd/duolint CLI loads packages, runs every analyzer, and exits non-zero
// on findings; legitimate exceptions are annotated in place with a
//
//	//duolint:allow <rule>[,<rule>...] <reason>
//
// comment directive (see run.go), and an unused directive is itself a
// finding so stale annotations cannot accumulate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named rule. Run inspects a fully type-checked package
// through the Pass and reports diagnostics; it must not mutate the AST.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics ("[name] message")
	// and in //duolint:allow directives.
	Name string
	// Doc is a one-line description of the contract the rule guards.
	Doc string
	// Run executes the rule over one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Fset maps token positions for every file in the package.
	Fset *token.FileSet
	// Path is the package's import path.
	Path string
	// Dir is the package's source directory on disk. Analyzers that need
	// evidence from files outside the type-checked set (gobsymmetry scans
	// sibling _test.go files) read it from here; it is empty when the
	// package was loaded without directory information.
	Dir string
	// Files are the package's parsed non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package object (never nil; possibly
	// incomplete when the package had type errors, which the loader
	// tolerates).
	Pkg *types.Package
	// Info holds the type-checker's expression/object tables.
	Info *types.Info

	rule   string
	report func(Diagnostic)
}

// Reportf records one diagnostic for the current rule at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
}

// String renders the canonical "file:line:col: [rule] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// fill populates the flattened position fields from Pos; diagnostics
// constructed with File/Line directly (directive hygiene) pass through.
func (d *Diagnostic) fill() {
	if d.File != "" || d.Pos.Filename == "" {
		return
	}
	d.File = d.Pos.Filename
	d.Line = d.Pos.Line
	d.Col = d.Pos.Column
}

// sortDiagnostics orders findings by file, line, column, then rule, so
// output is stable across runs and analyzer execution order.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
