package analysis

import (
	"go/ast"
)

// This file is the control-flow-graph layer of the analyzer suite. It
// lowers one function body (go/ast, structured control flow only) into
// basic blocks with successor/predecessor edges, and derives the one
// judgment billedquery needs: a forward must-analysis (allPathsBefore)
// that handles billing split across branches — a fact holds at an event
// iff EVERY entry path establishes it first.
//
// The builder understands if/for/range/switch/type-switch/select,
// break/continue (labeled and not), fallthrough, and return. goto is
// treated as a path terminator: the repository bans it stylistically, and
// for the must-analyses built on top a missing edge can only make the
// verdict more conservative on the jump's target, never less.
//
// Blocks carry "events": leaf statements plus the condition/init/post
// expressions evaluated in that block, in evaluation order. Nested
// function literals are NOT traversed — a FuncLit body is its own function
// with its own CFG (the per-innermost-function judgment every rule in this
// suite applies).

// cfgBlock is one basic block: events in evaluation order plus edges.
type cfgBlock struct {
	idx    int
	events []ast.Node
	succs  []*cfgBlock
	preds  []*cfgBlock
}

// cfg is the control-flow graph of one function body.
type cfg struct {
	entry  *cfgBlock
	blocks []*cfgBlock
}

// loopCtx is one enclosing breakable/continuable construct during
// construction.
type loopCtx struct {
	label    string
	breakTo  *cfgBlock
	contTo   *cfgBlock // nil for switch/select (break-only)
	isSwitch bool
}

type cfgBuilder struct {
	g     *cfg
	loops []loopCtx
}

// buildCFG lowers body into a CFG. It never returns nil; an empty body
// yields a single empty entry block.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{g: &cfg{}}
	entry := b.newBlock()
	b.g.entry = entry
	b.stmtList(body.List, entry)
	b.connect()
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{idx: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func edge(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// connect fills predecessor lists once every edge exists.
func (b *cfgBuilder) connect() {
	for _, blk := range b.g.blocks {
		for _, s := range blk.succs {
			s.preds = append(s.preds, blk)
		}
	}
}

// stmtList lowers stmts starting in cur and returns the block where
// control continues, or nil when every path left the list (return/branch).
func (b *cfgBuilder) stmtList(stmts []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, st := range stmts {
		if cur == nil {
			return nil
		}
		cur = b.stmt(st, "", cur)
	}
	return cur
}

// stmt lowers one statement (label is the enclosing label name, for
// `L: for ...`) and returns the continuation block, nil if control never
// falls through.
func (b *cfgBuilder) stmt(st ast.Stmt, label string, cur *cfgBlock) *cfgBlock {
	switch s := st.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, cur)

	case *ast.LabeledStmt:
		return b.stmt(s.Stmt, s.Label.Name, cur)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.events = append(cur.events, s.Init)
		}
		cur.events = append(cur.events, s.Cond)
		join := b.newBlock()
		then := b.newBlock()
		edge(cur, then)
		if out := b.stmtList(s.Body.List, then); out != nil {
			edge(out, join)
		}
		if s.Else != nil {
			els := b.newBlock()
			edge(cur, els)
			if out := b.stmt(s.Else, "", els); out != nil {
				edge(out, join)
			}
		} else {
			edge(cur, join)
		}
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			cur.events = append(cur.events, s.Init)
		}
		header := b.newBlock()
		edge(cur, header)
		if s.Cond != nil {
			header.events = append(header.events, s.Cond)
		}
		exit := b.newBlock()
		if s.Cond != nil {
			edge(header, exit) // condition false
		}
		body := b.newBlock()
		edge(header, body)
		latch := b.newBlock() // post statement / back edge source
		if s.Post != nil {
			latch.events = append(latch.events, s.Post)
		}
		edge(latch, header)
		b.loops = append(b.loops, loopCtx{label: label, breakTo: exit, contTo: latch})
		if out := b.stmtList(s.Body.List, body); out != nil {
			edge(out, latch)
		}
		b.loops = b.loops[:len(b.loops)-1]
		return exit

	case *ast.RangeStmt:
		header := b.newBlock()
		// The ranged expression and the per-iteration key/value binding
		// are header events.
		header.events = append(header.events, s.X)
		edge(cur, header)
		exit := b.newBlock()
		edge(header, exit) // range exhausted
		body := b.newBlock()
		edge(header, body)
		b.loops = append(b.loops, loopCtx{label: label, breakTo: exit, contTo: header})
		if out := b.stmtList(s.Body.List, body); out != nil {
			edge(out, header) // back edge
		}
		b.loops = b.loops[:len(b.loops)-1]
		return exit

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var init ast.Stmt
		var tag ast.Node
		var clauses []ast.Stmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			init, tag, clauses = sw.Init, sw.Tag, sw.Body.List
		} else {
			ts := s.(*ast.TypeSwitchStmt)
			init, tag, clauses = ts.Init, ts.Assign, ts.Body.List
		}
		if init != nil {
			cur.events = append(cur.events, init)
		}
		if tag != nil {
			cur.events = append(cur.events, tag)
		}
		join := b.newBlock()
		b.loops = append(b.loops, loopCtx{label: label, breakTo: join, isSwitch: true})
		hasDefault := false
		// Lower clause bodies in order so fallthrough can edge into the
		// next clause's block.
		bodies := make([]*cfgBlock, len(clauses))
		for i := range clauses {
			bodies[i] = b.newBlock()
			edge(cur, bodies[i])
		}
		for i, cl := range clauses {
			cc, ok := cl.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				bodies[i].events = append(bodies[i].events, e)
			}
			out := b.stmtList(cc.Body, bodies[i])
			if out == nil {
				continue
			}
			if ft := endsInFallthrough(cc.Body); ft && i+1 < len(bodies) {
				edge(out, bodies[i+1])
			} else {
				edge(out, join)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		if !hasDefault {
			edge(cur, join) // no clause matched
		}
		return join

	case *ast.SelectStmt:
		join := b.newBlock()
		b.loops = append(b.loops, loopCtx{label: label, breakTo: join, isSwitch: true})
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			body := b.newBlock()
			edge(cur, body)
			if cc.Comm != nil {
				body.events = append(body.events, cc.Comm)
			}
			if out := b.stmtList(cc.Body, body); out != nil {
				edge(out, join)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		return join

	case *ast.BranchStmt:
		return b.branch(s, cur)

	case *ast.ReturnStmt:
		cur.events = append(cur.events, s)
		return nil

	default:
		// Leaf statement: one event in the current block. This includes
		// Expr/Assign/IncDec/Decl/Defer/Go/Send/Empty statements.
		cur.events = append(cur.events, st)
		return cur
	}
}

// branch resolves break/continue/fallthrough/goto. fallthrough is handled
// by the switch lowering (endsInFallthrough); reaching it here means a
// malformed tree, treat as fallthrough-to-nowhere.
func (b *cfgBuilder) branch(s *ast.BranchStmt, cur *cfgBlock) *cfgBlock {
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		for i := len(b.loops) - 1; i >= 0; i-- {
			l := b.loops[i]
			if name == "" || l.label == name {
				edge(cur, l.breakTo)
				return nil
			}
		}
	case "continue":
		for i := len(b.loops) - 1; i >= 0; i-- {
			l := b.loops[i]
			if l.isSwitch {
				continue
			}
			if name == "" || l.label == name {
				edge(cur, l.contTo)
				return nil
			}
		}
	}
	// goto (or an unresolved label): path terminator — conservative for
	// every must-analysis built on this graph.
	return nil
}

// endsInFallthrough reports whether a case body ends in a fallthrough.
func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok.String() == "fallthrough"
}

// allPathsBefore runs the forward must-analysis billedquery needs: it
// returns, for every event that `consumes` matches, whether EVERY path
// from entry reaches it only after an event matching `establishes`. Events
// within a block are ordered; establishing and consuming in the same event
// counts as NOT established (Go statements cannot both bill and query).
// The verdict map is keyed by the consuming event node.
func (g *cfg) allPathsBefore(establishes, consumes func(ast.Node) bool) map[ast.Node]bool {
	n := len(g.blocks)
	// in[b] = true iff the fact holds on entry to b along every path.
	// Must-analysis: initialize optimistically (true) everywhere except
	// entry, iterate to a fixpoint of IN[b] = AND over preds of OUT[p].
	in := make([]bool, n)
	out := make([]bool, n)
	for i := range in {
		in[i], out[i] = true, true
	}
	in[g.entry.idx] = false

	blockOut := func(b *cfgBlock) bool {
		state := in[b.idx]
		for _, ev := range b.events {
			if establishes(ev) {
				state = true
			}
		}
		return state
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.blocks {
			if b != g.entry {
				s := true
				if len(b.preds) == 0 {
					s = false // unreachable from entry: no paths, stay safe
				}
				for _, p := range b.preds {
					s = s && out[p.idx]
				}
				if s != in[b.idx] {
					in[b.idx] = s
					changed = true
				}
			}
			if o := blockOut(b); o != out[b.idx] {
				out[b.idx] = o
				changed = true
			}
		}
	}

	verdict := make(map[ast.Node]bool)
	for _, b := range g.blocks {
		state := in[b.idx]
		for _, ev := range b.events {
			if consumes(ev) {
				verdict[ev] = state
			}
			if establishes(ev) {
				state = true
			}
		}
	}
	return verdict
}
