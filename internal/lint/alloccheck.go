package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"coaxial/internal/lint/analysis"
)

// alloccheck is a flow-sensitive escape/allocation analysis enforcing the
// zero-alloc discipline of the simulator's hot paths. The loaded-window
// speed work (DESIGN §7) holds only while the per-cycle tick allocates
// nothing in steady state; TestLoadedWindowAllocBudget guards that
// dynamically, but only on the configuration it happens to run. alloccheck
// proves it statically, per function, along every path.
//
// Hot roots come from two sources: the declaration table in
// DefaultAllocConfig (the phased tick — sim.System run/drain phases,
// dram.SubChannel scheduling, cpu.Core ROB/MSHR paths, the cxl link
// drains, rack host/device phases) and a //lint:allocfree annotation on
// any function declaration. Inside a hot function the analyzer reports:
//
//   - composite literals, new(T), and make([]T, ..) whose results escape —
//     stored into a field, map/slice element, or package variable,
//     returned, or captured by a closure. A tracked allocation that stays
//     local is NOT reported: the compiler's escape analysis stack-allocates
//     it, and flagging it would punish idiomatic scratch values.
//   - make(map)/make(chan) and map literals, which heap-allocate
//     unconditionally.
//   - append in a loop to a local slice created without a capacity hint
//     (make with no cap, or an empty literal) — the classic quadratic
//     regrowth bug. Appends to struct fields are exempt: retained buffers
//     amortize to zero allocations once warm (the arena discipline).
//   - interface boxing: a concrete non-pointer value passed to an
//     interface-typed parameter, converted to an interface type, or
//     assigned into an interface-typed location.
//   - string<->[]byte (and []rune) conversions, which copy.
//   - calls on the always-allocates list (fmt.Sprintf and friends,
//     errors.New, strconv formatting, sort.Slice).
//   - calls to any function whose interprocedural summary says it
//     allocates, with the original site threaded into the message.
//
// Summaries are computed for every function of every loaded package —
// within a package by fixpoint iteration, across packages through the
// fact store in dependency order — so SubChannel.tryIssue calling a
// helper checks at the call site, exactly like lockcheck's
// requires/acquires summaries. An allocation justified in place with
// //lint:alloc <why> is excluded from its function's summary: the
// justification covers the callers too.
//
// Where it can, the analyzer attaches a machine-applicable SuggestedFix
// (applied by coaxial-lint -fix): a capacity hint on the creation site of
// a flagged append target, and hoisting a loop-invariant, read-only
// allocation out of its loop.
//
// Soundness caveats (DESIGN §6): the analysis brackets the compiler's
// real escape analysis from both sides rather than reproducing it — a
// tracked local that never visibly escapes is assumed stack-allocated
// (the compiler may still spill it, e.g. when it is too large), and an
// escaping site is assumed heap-allocated (the compiler may still prove
// it dead). Function literals are not descended into, and calls with no
// summary (interface dispatch, function values, stdlib beyond the
// explicit list) are given the benefit of the doubt.
type alloccheckState struct {
	cfg      AllocConfig
	hot      map[string]bool
	allocFns map[string]bool
	cfgs     analysis.CFGCache
}

// AllocConfig configures the alloccheck analyzer for a repository.
type AllocConfig struct {
	// HotFuncs lists qualified names (pkgpath.Type.Method or pkgpath.Func)
	// of the hot roots: functions whose bodies are checked directly.
	// Everything they call is checked at the call site through summaries.
	HotFuncs []string
	// AllocFuncs lists qualified names of functions that always allocate
	// (string formatting, error construction); calls to them from hot
	// functions are reported without needing source for the callee.
	AllocFuncs []string
}

// DefaultAllocConfig returns the hot-path roots of this repository: the
// phased tick and its drains (DESIGN §2, §7). The roots are the drivers;
// interprocedural summaries extend the guarantee to every helper they
// call.
func DefaultAllocConfig() AllocConfig {
	return AllocConfig{
		HotFuncs: []string{
			// sim.System: the phased tick — per-cycle step, event-driven
			// step, core/backend drains, and the request completion path.
			"coaxial/internal/sim.System.step",
			"coaxial/internal/sim.System.stepEvent",
			"coaxial/internal/sim.System.tickEventCycle",
			"coaxial/internal/sim.System.nextEventBound",
			"coaxial/internal/sim.System.drainCoreEvents",
			"coaxial/internal/sim.System.drainRetired",
			"coaxial/internal/sim.System.Access",
			"coaxial/internal/sim.System.Complete",
			"coaxial/internal/sim.System.send",
			"coaxial/internal/sim.System.flushSpill",
			// cpu.Core: ROB dispatch/retire and the MSHR miss paths.
			"coaxial/internal/cpu.Core.Tick",
			"coaxial/internal/cpu.Core.NextEvent",
			"coaxial/internal/cpu.Core.dispatchLoop",
			"coaxial/internal/cpu.Core.startMem",
			"coaxial/internal/cpu.Core.ResolveMiss",
			// dram.SubChannel: FR-FCFS scheduling and command issue.
			"coaxial/internal/dram.SubChannel.Tick",
			"coaxial/internal/dram.SubChannel.NextEvent",
			"coaxial/internal/dram.SubChannel.tryIssue",
			"coaxial/internal/dram.SubChannel.Enqueue",
			// cxl: link serialization, retry, and the retired drains. A
			// Channel's Enqueue and Complete are its Port's.
			"coaxial/internal/cxl.Channel.Tick",
			"coaxial/internal/cxl.Channel.NextEvent",
			"coaxial/internal/cxl.PooledDevice.TickDevice",
			"coaxial/internal/cxl.Port.Tick",
			"coaxial/internal/cxl.Port.Enqueue",
			"coaxial/internal/cxl.Port.Complete",
			// rack: the lockstep host/device phases.
			"coaxial/internal/rack.rack.step",
		},
		AllocFuncs: []string{
			"fmt.Sprintf", "fmt.Sprint", "fmt.Sprintln",
			"fmt.Errorf", "fmt.Appendf",
			"fmt.Fprintf", "fmt.Fprint", "fmt.Fprintln",
			"errors.New", "errors.Join",
			"strconv.Itoa", "strconv.Quote",
			"strconv.FormatInt", "strconv.FormatUint", "strconv.FormatFloat",
			"strconv.AppendInt", "strconv.AppendUint", "strconv.AppendFloat",
			"strings.Join", "strings.Repeat", "strings.Builder.String",
			"sort.Slice", "sort.SliceStable",
		},
	}
}

// Fact key: *types.Func -> allocSummary.
const allocSumFact = "allocsum"

// allocSummary is a function's interprocedural allocation behavior. reason
// carries the first unsuppressed allocation with its position so the
// report at a distant call site still points at the real source.
type allocSummary struct {
	allocates bool
	reason    string
}

// NewAllocCheck builds the alloccheck analyzer from a configuration.
func NewAllocCheck(cfg AllocConfig) *analysis.Analyzer {
	a := &alloccheckState{
		cfg:      cfg,
		hot:      map[string]bool{},
		allocFns: map[string]bool{},
		cfgs:     analysis.CFGCache{},
	}
	for _, f := range cfg.HotFuncs {
		a.hot[f] = true
	}
	for _, f := range cfg.AllocFuncs {
		a.allocFns[f] = true
	}
	return &analysis.Analyzer{
		Name:        "alloccheck",
		Doc:         "flow-sensitive escape/allocation analysis: heap allocations (escaping composites, boxing, un-hinted append growth, string conversions, fmt/errors construction) reachable from hot tick/drain functions",
		Directives:  []string{"alloc"},
		Annotations: []string{"allocfree"},
		Run:         a.run,
	}
}

func (a *alloccheckState) run(pass *analysis.Pass) error {
	a.checkHotRoots(pass)
	analysis.InferSummaries(pass, analysis.FuncDecls(pass), allocSumFact,
		func(fn analysis.FuncDecl) allocSummary { return a.analyze(pass, fn.Decl, false) },
		func(x, y allocSummary) bool { return x == y })
	a.reportPackage(pass)
	return nil
}

// checkHotRoots reports every HotFuncs entry of this package that names no
// declared function or method (a renamed root, or a method now promoted
// from an embedded type): such a root would silently check nothing.
func (a *alloccheckState) checkHotRoots(pass *analysis.Pass) {
	for _, name := range a.cfg.HotFuncs {
		pkg, rest := splitQName(name)
		if pkg != pass.Pkg.Path() {
			continue
		}
		if _, ok := declaredObject(pass.Pkg, rest).(*types.Func); !ok {
			pass.Reportf(pass.Files[0].Name.Pos(),
				"hot root %s names no declared function or method in package %s", name, pkg)
		}
	}
}

// ---- allocation sites and flow state ----

// allocSite is one tracked allocation expression. Sites are shared across
// flow-state clones: escape is a may-property (any path escaping taints
// the site), so the shared mutable record is exactly the join we want.
type allocSite struct {
	pos  token.Pos
	what string // "composite literal", "new(T)", "make([]T, ..)"
	// hinted marks a make with an explicit capacity argument.
	hinted bool
	// value marks a non-pointer composite bound by value; it allocates
	// only if its address escapes.
	value bool
	// create is the allocation expression, kept for suggested fixes.
	create ast.Expr
	// escaped + how record the first witnessed escape.
	escaped bool
	how     string
}

// allocEnv is the flow state: a must-alias binding of local variables to
// allocation sites. Join keeps only bindings present and equal on both
// paths; a variable bound to different sites on merging paths becomes
// untracked (benefit of the doubt).
type allocEnv struct {
	bind map[types.Object]*allocSite
}

func newAllocEnv() *allocEnv { return &allocEnv{bind: map[types.Object]*allocSite{}} }

func (e *allocEnv) Clone() analysis.FlowState {
	c := &allocEnv{bind: make(map[types.Object]*allocSite, len(e.bind))}
	for k, v := range e.bind {
		c.bind[k] = v
	}
	return c
}

func (e *allocEnv) Join(other analysis.FlowState) bool {
	o := other.(*allocEnv)
	changed := false
	for k, v := range e.bind {
		if ov, ok := o.bind[k]; !ok || ov != v {
			delete(e.bind, k)
			changed = true
		}
	}
	return changed
}

// ---- per-function analysis ----

// allocPrescan is the syntactic pre-pass over one function body.
type allocPrescan struct {
	// loopOf maps every node inside a for/range body to its innermost
	// enclosing loop statement.
	loopOf map[ast.Node]ast.Stmt
	// captured holds objects referenced from inside function literals:
	// anything bound to them escapes into the closure.
	captured map[types.Object]bool
	// assigned holds objects assigned anywhere in the body (per loop, for
	// the hoist-invariance check) — keyed by loop, nil key = whole body.
	assignedIn map[ast.Stmt]map[types.Object]bool
	// names counts identifier definitions per name, to veto hoists that
	// would collide with a shadowed declaration.
	names map[string]int
}

type allocChecker struct {
	a    *alloccheckState
	pass *analysis.Pass
	pre  *allocPrescan
	body *ast.BlockStmt
	// reporting enables diagnostics (the hot-function replay pass).
	reporting bool
	// collect, when non-nil, receives the first unsuppressed allocation
	// (summary computation).
	collect *allocSummary
	// reported dedupes site-anchored diagnostics across replay paths.
	reported map[token.Pos]bool
}

// prescan walks the body once, mapping nodes to loops and closures.
func (c *allocChecker) prescan(body *ast.BlockStmt) {
	c.pre = &allocPrescan{
		loopOf:     map[ast.Node]ast.Stmt{},
		captured:   map[types.Object]bool{},
		assignedIn: map[ast.Stmt]map[types.Object]bool{},
		names:      map[string]int{},
	}
	var loops []ast.Stmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case nil:
			return false
		case *ast.FuncLit:
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := objOf(c.pass.TypesInfo, id); obj != nil && !declaredWithin(obj, x) {
						c.pre.captured[obj] = true
					}
				}
				return true
			})
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, x.(ast.Stmt))
			if fs, ok := x.(*ast.ForStmt); ok {
				ast.Inspect(fs.Init, walk)
			}
			var body *ast.BlockStmt
			var post ast.Stmt
			if fs, ok := x.(*ast.ForStmt); ok {
				body, post = fs.Body, fs.Post
			} else {
				body = x.(*ast.RangeStmt).Body
			}
			if post != nil {
				ast.Inspect(post, walk)
			}
			ast.Inspect(body, walk)
			loops = loops[:len(loops)-1]
			return false
		case *ast.Ident:
			if c.pass.TypesInfo.Defs[x] != nil {
				c.pre.names[x.Name]++
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					// A definition (:=) is the variable coming into being,
					// not a re-assignment; recording it would veto hoisting
					// the defining statement itself.
					if c.pass.TypesInfo.Defs[id] == nil {
						c.noteAssigned(loops, objOf(c.pass.TypesInfo, id))
					}
				} else if root := rootIdent(lhs); root != nil {
					// Writing s.f or s[i] mutates what s refers to.
					c.noteAssigned(loops, objOf(c.pass.TypesInfo, root))
				}
			}
		case *ast.IncDecStmt:
			if root := rootIdent(x.X); root != nil {
				c.noteAssigned(loops, objOf(c.pass.TypesInfo, root))
			}
		}
		if len(loops) > 0 {
			c.pre.loopOf[n] = loops[len(loops)-1]
		}
		return true
	}
	ast.Inspect(body, walk)
}

func (c *allocChecker) noteAssigned(loops []ast.Stmt, obj types.Object) {
	if obj == nil {
		return
	}
	keys := append([]ast.Stmt{nil}, loops...)
	for _, k := range keys {
		m := c.pre.assignedIn[k]
		if m == nil {
			m = map[types.Object]bool{}
			c.pre.assignedIn[k] = m
		}
		m[obj] = true
	}
}

// suppressed reports whether pos carries a //lint:alloc justification (or
// the generic ignore form); used when folding sites into summaries so a
// justified allocation does not taint every caller.
func (c *allocChecker) suppressed(pos token.Pos) bool {
	if args, ok := c.pass.DirectiveOn(pos, "alloc"); ok && args != "" {
		return true
	}
	if args, ok := c.pass.DirectiveOn(pos, "ignore"); ok {
		rest, found := cutPrefixWord(args, "alloccheck")
		return found && rest != ""
	}
	return false
}

// cutPrefixWord cuts a leading word followed by a space.
func cutPrefixWord(s, word string) (string, bool) {
	if s == word {
		return "", true
	}
	if len(s) > len(word) && s[:len(word)] == word && s[len(word)] == ' ' {
		return s[len(word)+1:], true
	}
	return "", false
}

// emit routes one allocation event: to the diagnostic stream in reporting
// mode (Reportf handles suppression), to the summary in collect mode
// (honoring suppressions itself).
func (c *allocChecker) emit(pos token.Pos, fix *analysis.SuggestedFix, format string, args ...any) {
	if c.collect != nil {
		c.collectAt(pos, fmt.Sprintf("%s: %s", c.pass.Fset.Position(pos), fmt.Sprintf(format, args...)))
		return
	}
	if c.reporting {
		c.pass.ReportWithFix(pos, fix, format, args...)
	}
}

// collectAt records the function's first unsuppressed allocation event
// in the summary being collected.
func (c *allocChecker) collectAt(pos token.Pos, reason string) {
	if !c.collect.allocates && !c.suppressed(pos) {
		c.collect.allocates = true
		c.collect.reason = reason
	}
}

// emitSite is emit anchored at an allocation site, deduplicated (replay
// can witness the same site's escape through several variables or paths).
func (c *allocChecker) emitSite(site *allocSite, fix *analysis.SuggestedFix, format string, args ...any) {
	if c.reported[site.pos] {
		return
	}
	c.reported[site.pos] = true
	c.emit(site.pos, fix, format, args...)
}

// transfer is the abstract step for one CFG node.
func (c *allocChecker) transfer(n ast.Node, s analysis.FlowState) {
	env := s.(*allocEnv)
	switch x := n.(type) {
	case *analysis.RunDefers:
		return
	case *ast.AssignStmt:
		c.assign(x, env)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.declSpec(vs, env)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range x.Results {
			c.escapeIfTracked(res, env, "returned")
			c.scanExpr(res, env)
		}
	case *ast.RangeStmt:
		c.scanExpr(x.X, env)
	default:
		c.scanNode(n, env)
	}
}

// declSpec handles `var x = <expr>` declarations like assignments.
func (c *allocChecker) declSpec(vs *ast.ValueSpec, env *allocEnv) {
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			c.bindOrScan(name, vs.Values[i], env)
		}
	}
}

// assign handles one assignment statement: allocation bindings, aliasing,
// escapes through composite LHS, boxing into interface locations, and
// append tracking.
func (c *allocChecker) assign(as *ast.AssignStmt, env *allocEnv) {
	// Parallel assignment with unequal arity (x, y := f()): no bindings to
	// track, just scan.
	if len(as.Lhs) != len(as.Rhs) {
		for _, rhs := range as.Rhs {
			c.scanExpr(rhs, env)
		}
		for _, lhs := range as.Lhs {
			c.scanLHS(lhs, env)
		}
		return
	}
	for i := range as.Lhs {
		lhs, rhs := ast.Unparen(as.Lhs[i]), ast.Unparen(as.Rhs[i])
		if id, ok := lhs.(*ast.Ident); ok {
			// A blank discard keeps nothing: the value cannot escape
			// through it.
			if id.Name == "_" {
				c.scanExpr(rhs, env)
				continue
			}
			c.bindOrScan(id, rhs, env)
			continue
		}
		// Composite LHS (field, element, deref, package var): anything
		// tracked on the RHS escapes into it, and a concrete RHS flowing
		// into an interface-typed location boxes.
		c.escapeIfTracked(rhs, env, "stored into "+lhsKind(c.pass, lhs))
		c.boxCheck(rhs, c.pass.TypesInfo.TypeOf(lhs), env)
		c.scanExpr(rhs, env)
		c.scanLHS(lhs, env)
	}
}

// scanLHS scans the subscripts/receiver parts of a non-identifier LHS.
func (c *allocChecker) scanLHS(lhs ast.Expr, env *allocEnv) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		c.scanExpr(x.Index, env)
	case *ast.StarExpr:
		c.scanExpr(x.X, env)
	}
}

// bindOrScan binds id to the allocation site of rhs when rhs allocates or
// aliases a tracked site; otherwise scans rhs normally. Binding to an
// interface-typed variable also box-checks.
func (c *allocChecker) bindOrScan(id *ast.Ident, rhs ast.Expr, env *allocEnv) {
	obj := objOf(c.pass.TypesInfo, id)
	if obj == nil {
		c.scanExpr(rhs, env)
		return
	}
	// A plain identifier can still be a package variable: assigning an
	// allocation to it escapes, same as the selector form.
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		c.escapeIfTracked(rhs, env, "stored into package variable "+id.Name)
		c.boxCheck(rhs, obj.Type(), env)
		c.scanExpr(rhs, env)
		return
	}
	c.boxCheck(rhs, obj.Type(), env)
	if site := c.siteOf(rhs, env); site != nil {
		env.bind[obj] = site
		if c.pre.captured[obj] {
			c.escapeSite(site, "captured by a closure")
		}
		// The allocation's operands still need scanning (a make's length
		// expression can itself allocate).
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				c.scanExpr(arg, env)
			}
		}
		return
	}
	// x = append(x, ...): keep x bound to its creation site; growth is
	// checked against that site's capacity hint.
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && builtinName(c.pass.TypesInfo, call) == "append" {
		c.appendCall(call, obj, env)
		return
	}
	delete(env.bind, obj)
	c.scanExpr(rhs, env)
}

// siteOf recognizes an allocation or aliasing expression: a composite
// literal (&T{...} pointer or T{...} value), new(T), make of a slice, or a
// plain identifier already bound to a site.
func (c *allocChecker) siteOf(rhs ast.Expr, env *allocEnv) *allocSite {
	switch x := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		return env.bind[objOf(c.pass.TypesInfo, x)]
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return nil
		}
		if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
			c.mapLitCheck(lit)
			return &allocSite{pos: x.Pos(), what: "&" + typeLabel(c.pass, lit) + " literal", create: rhs}
		}
		// &local: alias the pointed-to value's site, so escapes through
		// the pointer taint the composite.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			return env.bind[objOf(c.pass.TypesInfo, id)]
		}
		return nil
	case *ast.CompositeLit:
		c.mapLitCheck(x)
		if isMapType(c.pass.TypesInfo.TypeOf(x)) {
			return nil // already reported unconditionally
		}
		site := &allocSite{pos: x.Pos(), what: typeLabel(c.pass, x) + " literal", create: rhs}
		site.value = !isSliceType(c.pass.TypesInfo.TypeOf(x))
		return site
	case *ast.CallExpr:
		switch builtinName(c.pass.TypesInfo, x) {
		case "new":
			return &allocSite{pos: x.Pos(), what: "new(" + typeLabel(c.pass, x.Args[0]) + ")", create: rhs}
		case "make":
			t := c.pass.TypesInfo.TypeOf(x)
			if isMapType(t) || isChanType(t) {
				site := &allocSite{pos: x.Pos(), create: rhs}
				var fix *analysis.SuggestedFix
				if c.reporting && !c.reported[site.pos] {
					fix = c.hoistFix(site)
				}
				c.emitSite(site, fix, "heap allocation in hot path: make of a %s always allocates", typeKindLabel(t))
				return nil
			}
			return &allocSite{
				pos: x.Pos(), what: "make(" + typeLabel(c.pass, x.Args[0]) + ", ..)",
				hinted: len(x.Args) == 3, create: rhs,
			}
		}
	}
	return nil
}

// mapLitCheck reports map literals, which always heap-allocate.
func (c *allocChecker) mapLitCheck(lit *ast.CompositeLit) {
	if isMapType(c.pass.TypesInfo.TypeOf(lit)) {
		site := &allocSite{pos: lit.Pos(), create: lit}
		var fix *analysis.SuggestedFix
		if c.reporting && !c.reported[site.pos] {
			fix = c.hoistFix(site)
		}
		c.emitSite(site, fix, "heap allocation in hot path: map literal always allocates")
	}
}

// escapeIfTracked marks the site behind expr (x, &x, or an allocation
// expression used directly) as escaped. Value composites escape only
// through their address: `*p = robEntry{}` or `return Victim{}` copies
// the value into existing storage and allocates nothing, while
// `s.f = &x` pins x on the heap. Pointer-producing sites (&T{}, new,
// make) escape whenever the pointer flows out.
func (c *allocChecker) escapeIfTracked(expr ast.Expr, env *allocEnv, how string) {
	expr = ast.Unparen(expr)
	viaAddress := false
	if ue, ok := expr.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		viaAddress = true
	}
	site := c.siteOf(expr, env)
	if site == nil {
		return
	}
	if site.value && !viaAddress {
		return
	}
	c.escapeSite(site, how)
}

// escapeSite records the escape and reports the site. When the site is a
// loop-invariant read-only allocation, the diagnostic carries a hoist fix.
func (c *allocChecker) escapeSite(site *allocSite, how string) {
	if !site.escaped {
		site.escaped = true
		site.how = how
	}
	var fix *analysis.SuggestedFix
	if c.reporting && !c.reported[site.pos] {
		fix = c.hoistFix(site)
	}
	c.emitSite(site, fix, "heap allocation in hot path: %s escapes (%s)", site.what, site.how)
}

// appendCall checks x = append(x, ...) growth discipline: inside a loop,
// the appended-to slice must carry a capacity hint.
func (c *allocChecker) appendCall(call *ast.CallExpr, target types.Object, env *allocEnv) {
	for _, arg := range call.Args[1:] {
		c.boxCheckSliceElem(call, arg, env)
		c.scanExpr(arg, env)
	}
	site := env.bind[target]
	loop := c.pre.loopOf[call]
	if loop == nil {
		return // one-shot appends amortize; only loops grow
	}
	if site == nil {
		// Untracked target: a parameter, field-copied slice, or a merge
		// casualty. Fields are exempt by design (retained buffers); for
		// the rest the benefit of the doubt applies.
		return
	}
	if site.hinted {
		return
	}
	var fix *analysis.SuggestedFix
	if c.reporting && !c.reported[site.pos] {
		fix = c.capacityHintFix(site, loop)
	}
	c.emitSite(site, fix, "append in a loop grows %s, which was created without a capacity hint", c.renderExpr(call.Args[0]))
}

// ---- expression scanning (boxing, conversions, calls) ----

// scanNode scans a straight-line statement.
func (c *allocChecker) scanNode(n ast.Node, env *allocEnv) {
	switch x := n.(type) {
	case *ast.ExprStmt:
		c.scanExpr(x.X, env)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
	case *ast.SendStmt:
		c.scanExpr(x.Chan, env)
		c.scanExpr(x.Value, env)
	case *ast.DeferStmt:
		c.scanExpr(x.Call, env)
	case *ast.GoStmt:
		c.scanExpr(x.Call, env)
	case ast.Expr:
		c.scanExpr(x, env)
	default:
		ast.Inspect(n, func(m ast.Node) bool {
			if e, ok := m.(ast.Expr); ok {
				c.scanExpr(e, env)
				return false
			}
			return true
		})
	}
}

// scanExpr walks one expression, firing call/conversion/boxing events.
// Function literals are not descended into.
func (c *allocChecker) scanExpr(e ast.Expr, env *allocEnv) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(m ast.Node) bool {
		switch y := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			c.call(y, env)
			return false // call() scans its own arguments
		}
		return true
	})
}

// call handles one call or conversion expression.
func (c *allocChecker) call(call *ast.CallExpr, env *allocEnv) {
	// Type conversions: string<->[]byte/[]rune copy; conversions to
	// interface types box.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		c.conversion(call, tv.Type, env)
		c.scanExpr(call.Args[0], env)
		return
	}
	switch builtinName(c.pass.TypesInfo, call) {
	case "append":
		// Append outside an assignment tracking context (nested in an
		// expression): scan arguments only.
		for _, arg := range call.Args {
			c.scanExpr(arg, env)
		}
		return
	case "make", "new":
		// An allocation expression in bare expression position (a call
		// argument, usually): handled by siteOf when bound; here it is
		// being handed away immediately.
		if site := c.siteOf(call, env); site != nil {
			c.escapeSite(site, "passed away unbound")
		}
		for _, arg := range call.Args {
			c.scanExpr(arg, env)
		}
		return
	case "":
	default:
		// len/cap/min/max/copy/delete and friends: scan operands.
		for _, arg := range call.Args {
			c.scanExpr(arg, env)
		}
		return
	}

	fn := calleeOf(c.pass.TypesInfo, call)
	if fn != nil {
		qname := funcQName(fn)
		if c.a.allocFns[qname] {
			c.emit(call.Pos(), nil, "call to %s allocates in hot path", qname)
		} else if v, ok := c.pass.Facts.Get(fn, allocSumFact); ok && v.(allocSummary).allocates {
			sum := v.(allocSummary)
			if c.collect != nil {
				// A caller's summary inherits the callee's root
				// allocation, not the call chain: a chain through a
				// recursive cycle would grow every pass and never
				// converge.
				c.collectAt(call.Pos(), sum.reason)
			} else {
				c.emit(call.Pos(), nil, "call to %s allocates in hot path (%s)", fn.Name(), sum.reason)
			}
		}
		c.boxCheckArgs(call, fn, env)
	}
	for _, arg := range call.Args {
		c.scanExpr(arg, env)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		c.scanExpr(sel.X, env)
	}
}

// conversion reports allocating type conversions.
func (c *allocChecker) conversion(call *ast.CallExpr, to types.Type, env *allocEnv) {
	from := c.pass.TypesInfo.TypeOf(call.Args[0])
	if from == nil {
		return
	}
	if isStringType(to) && isByteOrRuneSlice(from) {
		c.emit(call.Pos(), nil, "string conversion allocates in hot path: string(%s) copies", c.renderExpr(call.Args[0]))
		return
	}
	if isByteOrRuneSlice(to) && isStringType(from) {
		c.emit(call.Pos(), nil, "string conversion allocates in hot path: %s copies", c.renderExpr(call))
		return
	}
	if types.IsInterface(to.Underlying()) {
		c.boxCheck(call.Args[0], to, env)
	}
}

// boxCheckArgs checks each argument against its parameter type for
// interface boxing. fmt-style always-allocates callees are exempt (the
// call itself was already reported).
func (c *allocChecker) boxCheckArgs(call *ast.CallExpr, fn *types.Func, env *allocEnv) {
	if c.a.allocFns[funcQName(fn)] {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a []T passed as T...: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		c.boxCheck(arg, pt, env)
	}
}

// boxCheckSliceElem checks appends into interface-element slices.
func (c *allocChecker) boxCheckSliceElem(call *ast.CallExpr, arg ast.Expr, env *allocEnv) {
	if st, ok := c.pass.TypesInfo.TypeOf(call.Args[0]).Underlying().(*types.Slice); ok {
		c.boxCheck(arg, st.Elem(), env)
	}
}

// boxCheck reports a concrete non-pointer value flowing into an
// interface-typed destination. Pointers, interfaces, channels, maps, and
// funcs fit in the interface word without allocating; constants fold to
// static cells; nil is nil.
func (c *allocChecker) boxCheck(arg ast.Expr, dest types.Type, env *allocEnv) {
	if dest == nil || !types.IsInterface(dest.Underlying()) {
		return
	}
	if _, isTypeParam := types.Unalias(dest).(*types.TypeParam); isTypeParam {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[arg]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return
	}
	at := tv.Type
	if types.IsInterface(at.Underlying()) {
		return
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	c.emit(arg.Pos(), nil, "interface boxing in hot path: %s value %s converted to %s",
		at.String(), c.renderExpr(arg), dest.String())
}

// ---- suggested fixes ----

// capacityHintFix proposes editing an un-hinted slice creation so appends
// in a range loop stop growing it: make(S, 0) and S{} become
// make(S, 0, len(<ranged>)). Only offered when the loop is a range over a
// pure expression (an identifier or selector chain).
func (c *allocChecker) capacityHintFix(site *allocSite, loop ast.Stmt) *analysis.SuggestedFix {
	rng, ok := loop.(*ast.RangeStmt)
	if !ok {
		return nil
	}
	bound := c.renderExpr(rng.X)
	if bound == "" {
		return nil
	}
	switch x := ast.Unparen(site.create).(type) {
	case *ast.CallExpr:
		// make(S, 0) -> make(S, 0, len(bound)); only the zero-length form
		// is safely hintable (adding cap to a non-zero len changes nothing
		// semantically, but hinting len>0 makes is rarely what's wanted).
		if builtinName(c.pass.TypesInfo, x) != "make" || len(x.Args) != 2 || !isZeroLit(x.Args[1]) {
			return nil
		}
		return &analysis.SuggestedFix{
			Message: "add a capacity hint sized to the ranged collection",
			Edits: []analysis.TextEdit{
				analysis.Edit(c.pass.Fset, x.Args[1].End(), x.Args[1].End(), ", len("+bound+")"),
			},
		}
	case *ast.CompositeLit:
		if len(x.Elts) != 0 || !isSliceType(c.pass.TypesInfo.TypeOf(x)) {
			return nil
		}
		return &analysis.SuggestedFix{
			Message: "replace the empty literal with a capacity-hinted make",
			Edits: []analysis.TextEdit{
				analysis.Edit(c.pass.Fset, x.Pos(), x.End(),
					"make("+c.pass.TypesInfo.TypeOf(x).String()+", 0, len("+bound+"))"),
			},
		}
	}
	return nil
}

// hoistFix proposes moving a loop-invariant, read-only allocation above
// its loop. Offered only when it provably cannot change behavior: every
// operand of the allocation is a literal or a variable neither declared
// nor assigned inside the loop, and the bound variable is never written,
// appended to, captured, or passed to a call after creation (reads,
// len/cap, indexing, and ranging are fine) — a reused read-only slice or
// map is indistinguishable from a fresh one.
func (c *allocChecker) hoistFix(site *allocSite) *analysis.SuggestedFix {
	if site.create == nil {
		return nil
	}
	loop := c.pre.loopOf[site.create]
	if loop == nil {
		return nil
	}
	stmt := c.creationStmt(site)
	if stmt == nil || c.pre.loopOf[stmt] != loop {
		return nil
	}
	// The statement must be a single-variable := creation.
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || c.pre.names[id.Name] != 1 {
		return nil // shadowing risk: another declaration shares the name
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil || !c.readOnlyAfter(obj, loop) {
		return nil
	}
	if !c.invariantOperands(site.create, loop) {
		return nil
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, c.pass.Fset, stmt); err != nil {
		return nil
	}
	indent := c.lineIndent(loop.Pos())
	return &analysis.SuggestedFix{
		Message: "hoist the loop-invariant allocation above the loop",
		Edits: []analysis.TextEdit{
			analysis.Insert(c.pass.Fset, loop.Pos(), buf.String()+"\n"+indent),
			analysis.Edit(c.pass.Fset, stmt.Pos(), stmt.End(), ""),
		},
	}
}

// creationStmt finds the statement node holding the site's creation
// expression (the := assignment).
func (c *allocChecker) creationStmt(site *allocSite) ast.Stmt {
	var found ast.Stmt
	ast.Inspect(c.body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, rhs := range as.Rhs {
				if ast.Unparen(rhs) == ast.Unparen(site.create) {
					found = as
					return false
				}
			}
		}
		return true
	})
	return found
}

// readOnlyAfter reports whether obj is only ever read inside the loop:
// no assignments, no index/field writes through it, no address-of, no
// appearance as a call argument or method receiver, no capture.
func (c *allocChecker) readOnlyAfter(obj types.Object, loop ast.Stmt) bool {
	if c.pre.captured[obj] {
		return false
	}
	if c.pre.assignedIn[loop][obj] {
		return false
	}
	ok := true
	ast.Inspect(loop, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND && rootIdent(x.X) != nil && objOf(c.pass.TypesInfo, rootIdent(x.X)) == obj {
				ok = false
			}
		case *ast.CallExpr:
			if bn := builtinName(c.pass.TypesInfo, x); bn == "len" || bn == "cap" {
				return true
			}
			for _, arg := range x.Args {
				if id := rootIdent(arg); id != nil && objOf(c.pass.TypesInfo, id) == obj {
					ok = false
				}
			}
			if sel, isSel := ast.Unparen(x.Fun).(*ast.SelectorExpr); isSel {
				if id := rootIdent(sel.X); id != nil && objOf(c.pass.TypesInfo, id) == obj {
					ok = false
				}
			}
		}
		return ok
	})
	return ok
}

// invariantOperands reports whether every identifier inside the creation
// expression is declared outside the loop and never assigned inside it.
func (c *allocChecker) invariantOperands(create ast.Expr, loop ast.Stmt) bool {
	ok := true
	ast.Inspect(create, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || !ok {
			return ok
		}
		obj := objOf(c.pass.TypesInfo, id)
		if obj == nil {
			return true // type names in the literal
		}
		switch obj.(type) {
		case *types.Var:
			if declaredWithin(obj, loop) || c.pre.assignedIn[loop][obj] {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// lineIndent extracts the leading whitespace of pos's line, so an
// inserted statement aligns with the loop it precedes.
func (c *allocChecker) lineIndent(pos token.Pos) string {
	p := c.pass.Fset.Position(pos)
	if p.Column <= 1 {
		return ""
	}
	// Reconstruct tabs: gofmt indents with tabs, one per level; column
	// counts each tab as one. This is exact for gofmt-formatted source.
	indent := make([]byte, p.Column-1)
	for i := range indent {
		indent[i] = '\t'
	}
	return string(indent)
}

// renderExpr prints a simple expression (identifier / selector chain) for
// messages and fixes; anything with side effects renders as "".
func (c *allocChecker) renderExpr(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := c.renderExpr(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.BasicLit:
		return x.Value
	case *ast.CallExpr:
		if tv, ok := c.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			inner := c.renderExpr(x.Args[0])
			if inner == "" {
				return ""
			}
			return tv.Type.String() + "(" + inner + ")"
		}
	}
	return ""
}

// ---- type helpers ----

// isZeroLit reports whether e is the literal 0.
func isZeroLit(e ast.Expr) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Kind == token.INT && bl.Value == "0"
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func typeKindLabel(t types.Type) string {
	if isMapType(t) {
		return "map"
	}
	return "channel"
}

// typeLabel renders the type of an expression for messages.
func typeLabel(pass *analysis.Pass, e ast.Expr) string {
	if t := pass.TypesInfo.TypeOf(e); t != nil {
		return t.String()
	}
	return "value"
}

// lhsKind names an escaping assignment destination for messages.
func lhsKind(pass *analysis.Pass, lhs ast.Expr) string {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return "field " + x.Sel.Name
		}
		return "package variable " + x.Sel.Name
	case *ast.IndexExpr:
		return "an element"
	case *ast.StarExpr:
		return "a pointed-to location"
	case *ast.Ident:
		return "package variable " + x.Name
	}
	return "a non-local location"
}

// ---- package passes ----

// hotDecl reports whether fd is a hot root: named in the declaration
// table, or carrying a //lint:allocfree annotation.
func (a *alloccheckState) hotDecl(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if _, ok := pass.DirectiveOn(fd.Pos(), "allocfree"); ok {
		return true
	}
	obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	return obj != nil && a.hot[funcQName(obj)]
}

// analyze runs the allocation flow analysis over fd. With report off it
// returns fd's summary; with report on it replays the fixpoint with
// diagnostics enabled.
func (a *alloccheckState) analyze(pass *analysis.Pass, fd *ast.FuncDecl, report bool) allocSummary {
	cfg := a.cfgs.Of(fd)
	c := &allocChecker{a: a, pass: pass, body: fd.Body, reported: map[token.Pos]bool{}}
	c.prescan(fd.Body)
	var sum allocSummary
	if !report {
		c.collect = &sum
	}
	in := analysis.Forward(cfg, newAllocEnv(), c.transfer)
	c.reporting = report
	c.reported = map[token.Pos]bool{}
	analysis.ReplayBlocks(cfg, in, c.transfer)
	return sum
}

// reportPackage replays every hot function with diagnostics enabled.
func (a *alloccheckState) reportPackage(pass *analysis.Pass) {
	for _, fn := range analysis.FuncDecls(pass) {
		if a.hotDecl(pass, fn.Decl) {
			a.analyze(pass, fn.Decl, true)
		}
	}
}
