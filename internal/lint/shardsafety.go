package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Shardsafety enforces the windowed engine's event-routing contract
// (internal/sim/shard). A network component that schedules an event
// touching *another node's* state directly on the engine — via
// Engine.At/After or a package-local wrapper around them — bypasses
// noc.ScheduleAt, the one router that lands a callback on the shard
// owning the involved node. On the serial engine both paths are the
// same queue, so such bugs are invisible until a windowed run reorders
// the event relative to the owner shard's work.
//
// The analyzer flags three hazard shapes inside sim packages:
//
//   - a closure handed to At/After that writes through a captured
//     reference (pointer/map/slice local or parameter of the enclosing
//     function) — mutable state that may belong to another node;
//   - a closure handed to At/After that calls a same-package method on
//     such a captured reference when that method mutates its receiver
//     (one interprocedural hop — the mesh forward() bug's shape);
//   - scheduling guarded by an explicit `X.Src == X.Dst` comparison is
//     recognized as the sanctioned local-delivery idiom and skipped.
//
// It also cross-checks each package's Lookahead() contract: the window
// must be derived from the delay fields charged at scheduling sites
// (bare integer literals other than the 0/1 floor are flagged, as are
// fields read by Lookahead but by nothing else in the package), and a
// package that routes events through noc.ScheduleAt — or resolves
// per-node scheduling surfaces through sim.SchedulerFor, the windowed
// runner's path — must declare a Lookahead method at all. The closure
// rules follow both surfaces: proxy At/After resolve to the same
// internal/sim method set the engine's do.
type Shardsafety struct{}

// Name implements Analyzer.
func (Shardsafety) Name() string { return "shardsafety" }

// Doc implements Analyzer.
func (Shardsafety) Doc() string {
	return "cross-node events must route through noc.ScheduleAt, and Lookahead() must stay tied to the delay fields it vouches for"
}

// Check implements Analyzer.
func (Shardsafety) Check(p *Package) []Finding {
	// The engine itself (internal/sim, internal/sim/shard) owns the
	// queues the rule protects; internal/noc hosts the sanctioned
	// ScheduleAt router and is not a sim package.
	if !isSimPackage(p.ModuleRel) || p.ModuleRel == "internal/sim" || isUnder(p.ModuleRel, "internal/sim") {
		return nil
	}
	w := &shardWalker{p: p, wrappers: schedulerWrappers(p), writes: make(map[*types.Func]bool)}
	var out []Finding
	out = append(out, w.checkClosures()...)
	out = append(out, checkLookaheads(p)...)
	return out
}

// pkgPathHasSuffix reports whether pkg's import path is suffix or ends
// in "/"+suffix. Suffix matching (rather than equality against
// "fsoi/...") lets testdata fixtures impersonate module packages.
func pkgPathHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// schedulerCallee returns the method object when call is a direct
// Engine.At / Engine.After invocation on the simulation scheduler.
func schedulerCallee(p *Package, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := p.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || (fn.Name() != "At" && fn.Name() != "After") {
		return nil
	}
	if !pkgPathHasSuffix(fn.Pkg(), "internal/sim") && !pkgPathHasSuffix(fn.Pkg(), "internal/sim/shard") {
		return nil
	}
	return fn
}

// schedulerWrappers finds package-local functions that merely forward a
// func-typed parameter to Engine.At/After (the mesh's old engineAt
// shape). Calls to a wrapper are scheduling calls in disguise, so the
// closure rules apply to them too.
func schedulerWrappers(p *Package) map[types.Object]bool {
	wrappers := make(map[types.Object]bool)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := funcParamObjs(p, fd)
			if len(params) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || schedulerCallee(p, call) == nil || len(call.Args) == 0 {
					return true
				}
				last := identObj(p, call.Args[len(call.Args)-1])
				if last == nil {
					return true
				}
				for _, param := range params {
					if last == param {
						if _, isFunc := param.Type().Underlying().(*types.Signature); isFunc {
							wrappers[p.Info.Defs[fd.Name]] = true
						}
					}
				}
				return true
			})
		}
	}
	return wrappers
}

// funcParamObjs returns the declared objects of fd's parameters.
func funcParamObjs(p *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if o := p.Info.Defs[name]; o != nil {
				out = append(out, o)
			}
		}
	}
	return out
}

// shardWalker carries the per-package state of the closure checks.
type shardWalker struct {
	p        *Package
	wrappers map[types.Object]bool
	writes   map[*types.Func]bool // memo: does this method mutate its receiver?
}

// checkClosures walks every file for scheduling calls whose closure
// argument captures another node's mutable state.
func (w *shardWalker) checkClosures() []Finding {
	var out []Finding
	for _, f := range w.p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if schedulerCallee(w.p, call) == nil && !w.wrappers[calleeObj(w.p, call)] {
				return true
			}
			lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			if guardedBySrcDstEquality(stack) {
				return true // sanctioned local-delivery idiom
			}
			out = append(out, w.checkScheduledClosure(call, lit, enclosingFuncDecl(stack))...)
			return true
		})
	}
	return out
}

// calleeObj resolves the object a call invokes, for plain and selector
// call forms.
func calleeObj(p *Package, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// enclosingFuncDecl returns the innermost FuncDecl on the stack,
// skipping the node at the top.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 2; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// guardedBySrcDstEquality reports whether any enclosing if-statement
// compares a .Src field against a .Dst field for equality: the idiom
// that proves the scheduled event stays on the local node.
func guardedBySrcDstEquality(stack []ast.Node) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || be.Op != token.EQL {
				return true
			}
			if selNamed(be.X, "Src") && selNamed(be.Y, "Dst") ||
				selNamed(be.X, "Dst") && selNamed(be.Y, "Src") {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// selNamed reports whether e is a selector for the given field name.
func selNamed(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// checkScheduledClosure flags writes (direct or one method hop away)
// through references the closure captured from its enclosing function.
func (w *shardWalker) checkScheduledClosure(call *ast.CallExpr, lit *ast.FuncLit, encl *ast.FuncDecl) []Finding {
	if encl == nil {
		return nil
	}
	recv := receiverObj(w.p, encl)
	var out []Finding
	report := func(n ast.Node, obj types.Object, how string) {
		out = append(out, finding(w.p, "shardsafety", n,
			"scheduled closure %s captured %q, which may belong to another node's shard; route the event through noc.ScheduleAt with the owning node",
			how, obj.Name()))
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if obj := w.capturedRef(rootObj(w.p, lhs), lit, encl, recv); obj != nil && !bareIdent(lhs) {
					report(v, obj, "writes through")
				}
			}
		case *ast.IncDecStmt:
			if obj := w.capturedRef(rootObj(w.p, v.X), lit, encl, recv); obj != nil && !bareIdent(v.X) {
				report(v, obj, "writes through")
			}
		case *ast.CallExpr:
			if isBuiltin(w.p, v.Fun, "delete") && len(v.Args) == 2 {
				if obj := w.capturedRef(rootObj(w.p, v.Args[0]), lit, encl, recv); obj != nil {
					report(v, obj, "deletes through")
				}
				return true
			}
			if obj := w.mutatingMethodOnCapture(v, lit, encl, recv); obj != nil {
				report(v, obj, "calls a state-mutating method on")
			}
		}
		return true
	})
	if len(out) == 0 {
		return nil
	}
	// One finding per scheduling call keeps suppression reviewable: the
	// allow sits on the call, not sprayed across the closure body.
	first := out[0]
	pos := w.p.Fset.Position(call.Pos())
	first.File, first.Line, first.Col = pos.Filename, pos.Line, pos.Column
	return []Finding{first}
}

// bareIdent reports whether e is a plain identifier (no selector,
// index, or deref): assigning a captured scalar outright rebinds
// closure-private state rather than mutating shared node state.
func bareIdent(e ast.Expr) bool {
	_, ok := e.(*ast.Ident)
	return ok
}

// capturedRef returns obj when it is a reference-typed (pointer, map,
// slice) local or parameter of the enclosing function captured by the
// closure — i.e. not declared inside the closure, not the method
// receiver, and not package-level.
func (w *shardWalker) capturedRef(obj types.Object, lit *ast.FuncLit, encl *ast.FuncDecl, recv types.Object) types.Object {
	if obj == nil || obj == recv {
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	if lit.Pos() <= obj.Pos() && obj.Pos() < lit.End() {
		return nil // the closure's own local or parameter
	}
	if obj.Pos() < encl.Pos() || encl.End() <= obj.Pos() {
		return nil // package-level state, not a per-call capture
	}
	switch v.Type().Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice:
		return obj
	}
	return nil
}

// mutatingMethodOnCapture reports the captured receiver when call is a
// same-package method invocation on a captured reference and the
// method's body mutates its receiver (the one-hop interprocedural case:
// next.acceptFlit(...) appending to next's input FIFOs).
func (w *shardWalker) mutatingMethodOnCapture(call *ast.CallExpr, lit *ast.FuncLit, encl *ast.FuncDecl, recv types.Object) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := w.p.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() != w.p.Types {
		return nil
	}
	obj := w.capturedRef(rootObj(w.p, sel.X), lit, encl, recv)
	if obj == nil || !w.methodMutatesReceiver(fn) {
		return nil
	}
	return obj
}

// methodMutatesReceiver reports whether the package-local method fn
// assigns through its receiver (directly, or through a local derived
// from the receiver).
func (w *shardWalker) methodMutatesReceiver(fn *types.Func) bool {
	if mutates, ok := w.writes[fn]; ok {
		return mutates
	}
	w.writes[fn] = false // cycle guard
	fd := funcDeclOf(w.p, fn)
	if fd == nil || fd.Body == nil || fd.Recv == nil {
		return false
	}
	recv := receiverObj(w.p, fd)
	if recv == nil {
		return false
	}
	// Receiver-derived locals (in := &r.inputs[p][v]) count as the
	// receiver for write detection.
	derived := map[types.Object]bool{recv: true}
	rooted := func(e ast.Expr) bool { return derived[rootObj(w.p, e)] }
	mutates := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				for i, rhs := range v.Rhs {
					if i < len(v.Lhs) && rooted(rhs) {
						if o := identObj(w.p, v.Lhs[i]); o != nil {
							derived[o] = true
						}
					}
				}
				return true
			}
			for _, lhs := range v.Lhs {
				if rooted(lhs) && !bareIdent(lhs) {
					mutates = true
				}
			}
		case *ast.IncDecStmt:
			if rooted(v.X) && !bareIdent(v.X) {
				mutates = true
			}
		case *ast.CallExpr:
			if isBuiltin(w.p, v.Fun, "delete") && len(v.Args) == 2 && rooted(v.Args[0]) {
				mutates = true
			}
		}
		return !mutates
	})
	w.writes[fn] = mutates
	return mutates
}

// funcDeclOf finds the declaration of fn in the package's files.
func funcDeclOf(p *Package, fn *types.Func) *ast.FuncDecl {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && p.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// receiverObj returns the object bound to fd's receiver, or nil.
func receiverObj(p *Package, fd *ast.FuncDecl) types.Object {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return p.Info.Defs[fd.Recv.List[0].Names[0]]
}

// checkLookaheads cross-checks the package's Lookahead() declarations
// against the delay fields the rest of the package actually charges,
// and requires one to exist when the package routes events through
// noc.ScheduleAt.
func checkLookaheads(p *Package) []Finding {
	var out []Finding
	var bodies []*ast.FuncDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && isLookaheadDecl(p, fd) {
				bodies = append(bodies, fd)
			}
		}
	}

	// Bare literals: a hardcoded window silently detaches from the
	// delay constant it is supposed to bound. 0 and 1 stay legal as the
	// conservative floor idiom (if la < 1 { return 1 }).
	for _, fd := range bodies {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if bl, ok := n.(*ast.BasicLit); ok && bl.Kind == token.INT && bl.Value != "0" && bl.Value != "1" {
				out = append(out, finding(p, "shardsafety", bl,
					"Lookahead hardcodes %s: derive the window from the delay field charged at the scheduling sites (only the 0/1 floor may be literal)", bl.Value))
			}
			return true
		})
	}

	// Stale fields: every field Lookahead vouches for must also be read
	// by the code that schedules events, or the window no longer bounds
	// anything real.
	inLookahead := func(pos token.Pos) bool {
		for _, fd := range bodies {
			if fd.Body.Pos() <= pos && pos < fd.Body.End() {
				return true
			}
		}
		return false
	}
	type fieldRef struct {
		obj types.Object
		sel *ast.SelectorExpr
	}
	var refs []fieldRef
	seen := make(map[types.Object]bool)
	usedOutside := make(map[types.Object]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := p.Info.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			obj := selection.Obj()
			if inLookahead(sel.Pos()) {
				if !seen[obj] {
					seen[obj] = true
					refs = append(refs, fieldRef{obj, sel})
				}
			} else {
				usedOutside[obj] = true
			}
			return true
		})
	}
	for _, r := range refs {
		if !usedOutside[r.obj] {
			out = append(out, finding(p, "shardsafety", r.sel,
				"Lookahead reads %s but no scheduling site does: the declared window has drifted from the delays actually charged", exprString(r.sel)))
		}
	}

	// A package that hands events to the sharded router — or resolves
	// per-node scheduling surfaces, the windowed runner's routing path —
	// must bound its cross-shard slack with a declared lookahead.
	if len(bodies) == 0 {
		for _, f := range p.Files {
			var hit ast.Node
			var surface string
			ast.Inspect(f, func(n ast.Node) bool {
				if hit != nil {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := calleeObj(p, call).(*types.Func)
				if !ok {
					return true
				}
				switch {
				case fn.Name() == "ScheduleAt" && pkgPathHasSuffix(fn.Pkg(), "internal/noc"):
					hit, surface = call, "routes cross-node events through noc.ScheduleAt"
				case fn.Name() == "SchedulerFor" && pkgPathHasSuffix(fn.Pkg(), "internal/sim"):
					hit, surface = call, "resolves per-node schedulers through sim.SchedulerFor"
				}
				return true
			})
			if hit != nil {
				out = append(out, finding(p, "shardsafety", hit,
					"package %s but declares no Lookahead method; the sharded and windowed engines cannot size their windows without one", surface))
				break
			}
		}
	}
	return out
}

// isLookaheadDecl reports whether fd declares the Lookaheader contract:
// method Lookahead() returning sim.Cycle.
func isLookaheadDecl(p *Package, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "Lookahead" || fd.Body == nil {
		return false
	}
	fn, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj().Name() == "Cycle" && pkgPathHasSuffix(named.Obj().Pkg(), "internal/sim")
}
