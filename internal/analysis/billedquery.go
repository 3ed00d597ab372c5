package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Billedquery enforces the query-billing invariant that makes DUO's
// query-efficiency numbers measurable: inside the attack path (packages
// .../internal/core and .../internal/attack), every victim
// Retrieve/RetrieveErr/RetrieveBatch call — and every call of
// retrieval.Query, the dispatch function that issues one — must be billed
// against the query budget. The check is CFG-grade: the issuing function
// must increment a budget counter (an identifier or field whose name
// contains "queries") on EVERY control-flow path from function entry to the
// call — the
// `queries++` / `telQueries.Inc()` pattern of SparseQuery's retrieveIDs
// wrapper. Billing split across both arms of a branch satisfies the rule
// (the lexical predecessor check this replaces could not see that);
// billing only one arm does not. Evaluation-time queries outside the
// budget (metrics like AP@m) carry //duolint:allow billedquery
// annotations, which doubles as an inventory of every unbilled victim
// touchpoint.
var Billedquery = &Analyzer{
	Name: "billedquery",
	Doc:  "victim Retrieve/RetrieveBatch/retrieval.Query calls in the attack path must be budget-billed on every path in the issuing function",
	Run:  runBilledquery,
}

// billedMethods are the victim query entry points.
var billedMethods = map[string]bool{
	"Retrieve":       true,
	"RetrieveErr":    true,
	"RetrieveBatch":  true,
	"RetrieveTraced": true,
}

func runBilledquery(p *Pass) {
	// The invariant binds the attack path only; retrieval engines bill
	// internally and other packages never hold a victim.
	if !pathMatches(p.Path, "core", "attack") {
		return
	}
	for _, f := range p.Files {
		funcBodies(f, func(_ ast.Node, body *ast.BlockStmt) {
			g := buildCFG(body)
			verdict := g.allPathsBefore(eventBills, func(ev ast.Node) bool {
				return len(victimCalls(p, ev)) > 0
			})
			for ev, billed := range verdict {
				if billed {
					continue
				}
				for _, c := range victimCalls(p, ev) {
					p.Reportf(c.Pos(), "victim %s call is not budget-billed on every path in this function; increment the query budget before issuing it",
						c.Fun.(*ast.SelectorExpr).Sel.Name)
				}
			}
		})
	}
}

// eventBills reports whether one CFG event charges the query budget: an
// increment or += on a name containing "queries". A plain assignment
// (`queries := 0`) initializes the meter, it does not charge it.
func eventBills(ev ast.Node) bool {
	bills := false
	inspectShallow(ev, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.IncDecStmt:
			if st.Tok == token.INC && nameMentionsQueries(st.X) {
				bills = true
			}
		case *ast.AssignStmt:
			if st.Tok != token.ADD_ASSIGN {
				return true
			}
			for _, lhs := range st.Lhs {
				if nameMentionsQueries(lhs) {
					bills = true
					break
				}
			}
		}
		return !bills
	})
	return bills
}

// victimCalls collects the victim query calls issued by one CFG event:
// method calls named Retrieve/RetrieveErr/RetrieveBatch/RetrieveTraced on a
// value receiver, and calls of the retrieval package's Query function (no
// other package-qualified function is a victim).
func victimCalls(p *Pass, ev ast.Node) []*ast.CallExpr {
	var out []*ast.CallExpr
	inspectShallow(ev, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg := pkgNamePath(p.Info, sel.X); pkg != "" {
			if sel.Sel.Name == "Query" && pathMatches(pkg, "retrieval") {
				out = append(out, call)
			}
			return true
		}
		if billedMethods[sel.Sel.Name] {
			out = append(out, call)
		}
		return true
	})
	return out
}

// nameMentionsQueries reports whether the assignment target is an
// identifier or field whose name contains "queries" (the budget counter
// naming convention: queries, telQueries, numQueries, ...).
func nameMentionsQueries(x ast.Expr) bool {
	var name string
	switch e := x.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return false
	}
	return strings.Contains(strings.ToLower(name), "queries")
}
