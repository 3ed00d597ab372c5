package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Gobsymmetry guards the layout of every gob-encoded type: every struct
// type a package passes to gob's Encoder.Encode or Decoder.Decode must
// decode identically on the reading side. Its only remaining subject is
// internal/dataset's synthetic-corpus file; the retrieval wire and index
// files use hand-written little-endian layouts. For each such type
// declared in the package, the rule requires
//
//   - every field to be exported — gob silently drops unexported fields,
//     which decodes as zero values on the far side with no error; and
//   - a sibling _test.go file that mentions the type by name and builds
//     both a gob.NewEncoder and a gob.NewDecoder — evidence of a
//     round-trip test pinning the type's encoded behavior.
//
// The test-file scan is syntactic on purpose: it runs without type-checking
// the test sources, so the rule stays cheap and dependency-free.
var Gobsymmetry = &Analyzer{
	Name: "gobsymmetry",
	Doc:  "gob wire types must be fully exported and covered by a sibling encode+decode round-trip test",
	Run:  runGobsymmetry,
}

func runGobsymmetry(p *Pass) {
	wire := gobWireTypes(p)
	if len(wire) == 0 {
		return
	}
	evidence := testEvidence(p.Dir)

	// Report in declaration order for stable output.
	names := make([]string, 0, len(wire))
	for n := range wire {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return wire[names[i]].pos < wire[names[j]].pos })

	for _, name := range names {
		wt := wire[name]
		if st, ok := wt.obj.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !f.Exported() {
					p.Reportf(f.Pos(), "gob wire type %s has unexported field %s, which gob silently drops on the wire", name, f.Name())
				}
			}
		}
		if evidence == nil {
			// No readable test files at all: every wire type is untested.
			p.Reportf(wt.pos, "gob wire type %s has no sibling _test.go round-trip coverage", name)
			continue
		}
		if !evidence.roundTrips || !evidence.mentions[name] {
			p.Reportf(wt.pos, "gob wire type %s is not covered by a sibling round-trip test (want a _test.go naming it and using both gob.NewEncoder and gob.NewDecoder)", name)
		}
	}
}

// wireType is one struct type observed crossing a gob boundary.
type wireType struct {
	obj *types.TypeName
	pos token.Pos
}

// gobWireTypes finds every named struct type, declared in this package,
// that is passed to (*gob.Encoder).Encode or (*gob.Decoder).Decode.
func gobWireTypes(p *Pass) map[string]wireType {
	out := make(map[string]wireType)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			method := sel.Sel.Name
			if method != "Encode" && method != "Decode" {
				return true
			}
			recv := p.Info.TypeOf(sel.X)
			switch namedDeclPath(recv) {
			case "encoding/gob":
			default:
				return true
			}
			arg := call.Args[0]
			if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
				arg = u.X
			}
			t := p.Info.TypeOf(arg)
			if t == nil {
				return true
			}
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return true
			}
			obj := named.Obj()
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != p.Path {
				return true // declared elsewhere; its home package owns the contract
			}
			if _, isStruct := obj.Type().Underlying().(*types.Struct); !isStruct {
				return true
			}
			if _, seen := out[obj.Name()]; !seen {
				out[obj.Name()] = wireType{obj: obj, pos: obj.Pos()}
			}
			return true
		})
	}
	return out
}

// gobEvidence is what the package's test files prove: which identifiers
// they mention, and whether they exercise a full encode+decode cycle.
type gobEvidence struct {
	mentions   map[string]bool
	newEncoder bool
	newDecoder bool
	roundTrips bool
}

// testEvidence parses the package directory's _test.go files (syntax only)
// and collects round-trip evidence. Returns nil when the directory cannot
// be read or holds no test files.
func testEvidence(dir string) *gobEvidence {
	if dir == "" {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	ev := &gobEvidence{mentions: make(map[string]bool)}
	found := false
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		found = true
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				ev.mentions[x.Name] = true
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && id.Name == "gob" {
					switch x.Sel.Name {
					case "NewEncoder":
						ev.newEncoder = true
					case "NewDecoder":
						ev.newDecoder = true
					}
				}
			}
			return true
		})
	}
	if !found {
		return nil
	}
	ev.roundTrips = ev.newEncoder && ev.newDecoder
	return ev
}
