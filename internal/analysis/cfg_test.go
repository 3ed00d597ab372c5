package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as the body of a single function declaration and
// returns it.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f(a, b, c int, xs []int, ch chan int) int {\n" + body + "\n}"
	f, err := parser.ParseFile(token.NewFileSet(), "cfg_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// eventText renders an event node's leading token for matching in tests.
func eventMatches(ev ast.Node, needle string) bool {
	switch n := ev.(type) {
	case *ast.ExprStmt:
		return exprMentions(n.X, needle)
	case *ast.AssignStmt:
		for _, e := range append(append([]ast.Expr{}, n.Lhs...), n.Rhs...) {
			if exprMentions(e, needle) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return exprMentions(n.X, needle)
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			if exprMentions(e, needle) {
				return true
			}
		}
	case ast.Expr:
		return exprMentions(n, needle)
	}
	return false
}

func exprMentions(e ast.Expr, needle string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.Contains(id.Name, needle) {
			found = true
		}
		return !found
	})
	return found
}

func TestCFGStraightLine(t *testing.T) {
	g := buildCFG(parseBody(t, "a = 1\nb = 2\nreturn a + b"))
	if len(g.entry.events) != 3 {
		t.Fatalf("entry events = %d, want 3", len(g.entry.events))
	}
}

// TestCFGNestedAndRangeLoops runs allPathsBefore over a for loop nested in
// a range loop: a bill at the top of the outer body precedes every inner
// consume, while a bill after the inner loop leaves the first outer
// iteration's consumes unbilled.
func TestCFGNestedAndRangeLoops(t *testing.T) {
	cases := []struct {
		name string
		body string
		want bool
	}{
		{"outer bill before inner consume", `
total := 0
for _, x := range xs {
	bill()
	for j := 0; j < x; j++ {
		total += consume(j)
	}
}
return total`, true},
		{"inner consume before outer bill", `
total := 0
for _, x := range xs {
	for j := 0; j < x; j++ {
		total += consume(j)
	}
	bill()
}
return total`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := allPaths(t, tc.body, "bill", "consume")
			if len(got) != 1 || got[0] != tc.want {
				t.Errorf("consume verdicts = %v, want [%v]", got, tc.want)
			}
		})
	}
}

// allPaths runs allPathsBefore with establish/consume keyed on identifier
// substrings and returns the verdicts of consuming events in source order.
func allPaths(t *testing.T, body, establish, consume string) []bool {
	t.Helper()
	g := buildCFG(parseBody(t, body))
	verdict := g.allPathsBefore(
		func(ev ast.Node) bool { return eventMatches(ev, establish) },
		func(ev ast.Node) bool { return eventMatches(ev, consume) },
	)
	type kv struct {
		pos token.Pos
		ok  bool
	}
	var ordered []kv
	for ev, ok := range verdict {
		ordered = append(ordered, kv{ev.Pos(), ok})
	}
	for i := range ordered {
		for j := i + 1; j < len(ordered); j++ {
			if ordered[j].pos < ordered[i].pos {
				ordered[i], ordered[j] = ordered[j], ordered[i]
			}
		}
	}
	out := make([]bool, len(ordered))
	for i, o := range ordered {
		out[i] = o.ok
	}
	return out
}

func TestAllPathsBefore(t *testing.T) {
	cases := []struct {
		name string
		body string
		want []bool
	}{
		{"straight line established", "bill()\nconsume()", []bool{true}},
		{"consume first", "consume()\nbill()", []bool{false}},
		{"one arm only", "if a > 0 { bill() }\nconsume()", []bool{false}},
		{"both arms", "if a > 0 { bill() } else { bill() }\nconsume()", []bool{true}},
		{"switch without default", "switch a {\ncase 0:\n\tbill()\ncase 1:\n\tbill()\n}\nconsume()", []bool{false}},
		{"switch with default", "switch a {\ncase 0:\n\tbill()\ndefault:\n\tbill()\n}\nconsume()", []bool{true}},
		{"zero-trip loop", "for i := 0; i < a; i++ { bill() }\nconsume()", []bool{false}},
		{"bill then loop consume", "bill()\nfor i := 0; i < a; i++ { consume() }", []bool{true}},
		{"consume before bill in loop", "for i := 0; i < a; i++ { consume(); bill() }", []bool{false}},
		{"bill before consume in loop", "for i := 0; i < a; i++ { bill(); consume() }", []bool{true}},
		{"early return guards consume", "if a > 0 { return 0 }\nbill()\nconsume()", []bool{true}},
		{"break skips bill", "for i := 0; i < a; i++ { if i > 2 { break }; bill() }\nconsume()", []bool{false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := allPaths(t, tc.body, "bill", "consume")
			if len(got) != len(tc.want) {
				t.Fatalf("got %d consuming events, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("consume #%d verdict = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}
