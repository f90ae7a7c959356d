package analysis

import (
	"go/ast"
	"go/types"
)

// FuncDecl is one function or method declaration with a body, paired with
// the object it declares.
type FuncDecl struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// FuncDecls returns the pass's function and method declarations that have
// bodies, in source order.
func FuncDecls(pass *Pass) []FuncDecl {
	var out []FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); obj != nil {
				out = append(out, FuncDecl{Decl: fd, Obj: obj})
			}
		}
	}
	return out
}

// InferSummaries computes an interprocedural summary for every function in
// fns to a fixpoint and records each as a fact under key. summarize may
// read the facts of other functions (callees), so a helper's summary
// reaches its callers within the package by iteration; across packages the
// driver's dependency order delivers it. A function whose summary equals
// the zero S gets no fact.
//
// Passes visit fns in the given order and repeat until one pass changes no
// summary. On an acyclic call graph pass k fixes every function whose
// call chain inside the package is shorter than k, so len(fns)+1 passes
// always suffice, whatever the declaration order; recursion in a monotone
// summary may take longer. The bound is 2·len(fns)+2 passes: a summary
// still changing then is oscillating or climbing an unbounded lattice, and
// the non-convergence is reported at that function instead of leaving its
// callers with a silently truncated summary.
func InferSummaries[S any](pass *Pass, fns []FuncDecl, key string,
	summarize func(FuncDecl) S, equal func(a, b S) bool) {
	limit := 2*len(fns) + 2
	for n := 1; ; n++ {
		var changed *FuncDecl
		for i := range fns {
			sum := summarize(fns[i])
			var cur S
			if v, ok := pass.Facts.Get(fns[i].Obj, key); ok {
				cur, _ = v.(S)
			}
			if !equal(sum, cur) {
				pass.Facts.Set(fns[i].Obj, key, sum)
				if changed == nil {
					changed = &fns[i]
				}
			}
		}
		if changed == nil {
			return
		}
		if n == limit {
			pass.Reportf(changed.Decl.Name.Pos(),
				"%s summary of %s did not converge in %d passes; summaries in this package may be incomplete",
				key, changed.Obj.Name(), limit)
			return
		}
	}
}

// CFGCache memoizes BuildCFG per declaration across one analyzer's run:
// the summary fixpoint and the reporting replay revisit the same bodies.
type CFGCache map[*ast.FuncDecl]*CFG

// Of returns fd's control-flow graph, building it on first use.
func (c CFGCache) Of(fd *ast.FuncDecl) *CFG {
	cfg := c[fd]
	if cfg == nil {
		cfg = BuildCFG(fd.Body)
		c[fd] = cfg
	}
	return cfg
}
