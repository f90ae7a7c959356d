package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// chainSrc declares a six-function call chain caller-first, so each
// summary pass in source order resolves only one more level.
const chainSrc = `package p

func f0() { f1() }
func f1() { f2() }
func f2() { f3() }
func f3() { f4() }
func f4() { f5() }
func f5() {}
`

func chainPass(t *testing.T) (*Pass, *[]Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", chainSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	pass := NewPass(&Analyzer{Name: "testcheck"}, fset, []*ast.File{f}, pkg, info, "", NewFactStore(),
		func(d Diagnostic) { diags = append(diags, d) })
	return pass, &diags
}

// callee returns the function fn's body calls, or nil.
func callee(pass *Pass, fn FuncDecl) *types.Func {
	var out *types.Func
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				out, _ = pass.TypesInfo.Uses[id].(*types.Func)
			}
		}
		return out == nil
	})
	return out
}

func TestInferSummariesDeepChainConverges(t *testing.T) {
	pass, diags := chainPass(t)
	fns := FuncDecls(pass)
	if len(fns) != 6 {
		t.Fatalf("FuncDecls found %d functions, want 6", len(fns))
	}
	passes := 0
	// The summary is "reaches the leaf f5": true for f5, and for any
	// function whose callee's summary is already true.
	InferSummaries(pass, fns, "leaf", func(fn FuncDecl) bool {
		if fn.Obj.Name() == "f0" {
			passes++
		}
		c := callee(pass, fn)
		return c == nil || pass.Facts.Bool(c, "leaf")
	}, func(a, b bool) bool { return a == b })
	for _, fn := range fns {
		if !pass.Facts.Bool(fn.Obj, "leaf") {
			t.Errorf("%s: summary not propagated up the chain", fn.Obj.Name())
		}
	}
	// Pass k settles f(6-k), so six passes reach f0 and a seventh
	// confirms nothing moved: len(fns)+1, the acyclic worst case.
	if passes != 7 {
		t.Errorf("fixpoint took %d passes, want 7", passes)
	}
	if len(*diags) != 0 {
		t.Errorf("converging fixpoint reported %v", *diags)
	}
}

func TestInferSummariesReportsNonConvergence(t *testing.T) {
	pass, diags := chainPass(t)
	fns := FuncDecls(pass)
	// A summary that changes on every evaluation never converges.
	n := 0
	InferSummaries(pass, fns, "counter", func(fn FuncDecl) int {
		n++
		return n
	}, func(a, b int) bool { return a == b })
	if want := (2*len(fns) + 2) * len(fns); n != want {
		t.Errorf("summarize ran %d times, want %d (the pass bound times the candidates)", n, want)
	}
	if len(*diags) != 1 || !strings.Contains((*diags)[0].Message, "counter summary of f0 did not converge in 14 passes") {
		t.Fatalf("want one non-convergence diagnostic at f0, got %v", *diags)
	}
	if (*diags)[0].Pos.Line != 3 {
		t.Errorf("diagnostic at line %d, want f0's declaration on line 3", (*diags)[0].Pos.Line)
	}
}

func TestCFGCacheBuildsOnce(t *testing.T) {
	pass, _ := chainPass(t)
	fns := FuncDecls(pass)
	c := CFGCache{}
	first := c.Of(fns[0].Decl)
	if first == nil || c.Of(fns[0].Decl) != first {
		t.Error("CFGCache.Of rebuilt a cached CFG")
	}
	if c.Of(fns[1].Decl) == first {
		t.Error("CFGCache.Of returned another declaration's CFG")
	}
}
