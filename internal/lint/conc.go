package lint

// conc.go is the concurrency-safety layer of the linter: three
// interprocedural rules over the shared call graph (callgraph.go)
// guarding the invariants the campaign/sweep/serve planes depend on —
// deterministic kill/resume needs every goroutine accounted for,
// cancellation needs contexts threaded end to end, and drain/restart
// needs no lock held across a blocking operation.
//
// The rules are interprocedural without SSA: a per-function summary
// pass (concInfo) classifies every declared function as blocking or
// not from its body alone, then a fixpoint propagates blockingness
// over call edges. Rules then combine the summaries with local,
// flow-aware walks (the lock rule tracks the held-lock set through
// defers and early unlocks statement by statement).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// concInfo is the per-module concurrency summary shared by the rules.
type concInfo struct {
	// pairs maps a blocking function to its context-threaded variant:
	// base X (no context.Context parameter) -> X+"Context" in the same
	// package (or on the same receiver type, for methods).
	pairs map[*types.Func]*types.Func
	// blocking marks functions that can block the calling goroutine —
	// directly (channel op, select, sleep, fsync, WaitGroup.Wait),
	// transitively through a call edge, or by having a *Context variant
	// (a long-running engine entry point by construction).
	blocking map[*types.Func]bool
	// why records, per blocking function, the first reason found —
	// either the direct operation or the callee it inherits from.
	why map[*types.Func]string
}

// conc builds the concurrency summaries once and caches them.
func (m *module) conc() *concInfo {
	if m.ci == nil {
		m.ci = newConcInfo(m)
	}
	return m.ci
}

func newConcInfo(m *module) *concInfo {
	g := m.callgraph()
	ci := &concInfo{
		pairs:    buildPairs(m),
		blocking: make(map[*types.Func]bool),
		why:      make(map[*types.Func]string),
	}

	// Deterministic function order (the fixpoint's `why` attribution
	// depends on it).
	fns := make([]*types.Func, 0, len(g.bodies))
	for fn := range g.bodies {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return g.bodies[fns[i]].Pos() < g.bodies[fns[j]].Pos() })

	// Direct blocking operations in each body.
	for _, fn := range fns {
		if desc := directBlock(g.pkgOf[fn], g.bodies[fn]); desc != "" {
			ci.blocking[fn] = true
			ci.why[fn] = desc
		}
	}

	// Every base/variant of a Context pair is long-running by
	// construction (the variant exists precisely because the call can
	// outlive a cancellation window), whether or not its body shows a
	// channel operation.
	mark := func(fn *types.Func) {
		if fn != nil && !ci.blocking[fn] {
			ci.blocking[fn] = true
			ci.why[fn] = "long-running: has a Context variant"
		}
	}
	for base, variant := range ci.pairs {
		mark(base)
		mark(variant)
	}

	// Fixpoint: a function calling a blocking function blocks.
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if ci.blocking[fn] {
				continue
			}
			for _, callee := range g.edges[fn] {
				if ci.blocking[callee] {
					ci.blocking[fn] = true
					ci.why[fn] = "calls " + qualified(callee)
					changed = true
					break
				}
			}
		}
	}
	return ci
}

// buildPairs indexes base -> Context-variant pairs: a function or
// method named X+"Context" taking a context.Context, whose counterpart
// X exists in the same scope and takes none.
func buildPairs(m *module) map[*types.Func]*types.Func {
	pairs := make(map[*types.Func]*types.Func)
	for _, p := range m.pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				addPair(pairs, obj, func(base string) *types.Func {
					fn, _ := scope.Lookup(base).(*types.Func)
					return fn
				})
			case *types.TypeName:
				if obj.IsAlias() {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					addPair(pairs, named.Method(i), func(base string) *types.Func {
						for j := 0; j < named.NumMethods(); j++ {
							if named.Method(j).Name() == base {
								return named.Method(j)
							}
						}
						return nil
					})
				}
			}
		}
	}
	return pairs
}

func addPair(pairs map[*types.Func]*types.Func, variant *types.Func, lookup func(string) *types.Func) {
	const suffix = "Context"
	name := variant.Name()
	if !strings.HasSuffix(name, suffix) || name == suffix {
		return
	}
	vsig, ok := variant.Type().(*types.Signature)
	if !ok || !hasCtxParam(vsig) {
		return
	}
	base := lookup(strings.TrimSuffix(name, suffix))
	if base == nil {
		return
	}
	bsig, ok := base.Type().(*types.Signature)
	if !ok || hasCtxParam(bsig) {
		return
	}
	pairs[base] = variant
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func hasCtxParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func recvTypeString(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return sig.Recv().Type().String()
}

func isEmptyStruct(t types.Type) bool {
	st, ok := t.Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// blockingCall names a standard-library call that blocks the calling
// goroutine — time.Sleep, fsync, WaitGroup.Wait — or returns "".
func blockingCall(fn *types.Func) string {
	switch {
	case fn.Name() == "Sleep" && fn.Pkg() != nil && fn.Pkg().Path() == "time":
		return "time.Sleep"
	case fn.Name() == "Sync" && recvTypeString(fn) == "*os.File":
		return "fsync"
	case fn.Name() == "Wait" && recvTypeString(fn) == "*sync.WaitGroup":
		return "WaitGroup.Wait"
	}
	return ""
}

// directBlock returns a description of the first operation in body that
// can block the calling goroutine, or "". Function literals count only
// when they run on this goroutine (IIFEs and deferred closures); `go`
// statement subtrees execute concurrently and are skipped. A select
// with a default case is non-blocking: its communication clauses are
// skipped but their bodies still scanned.
func directBlock(p *pkgInfo, body *ast.BlockStmt) string {
	// Function literals that execute inline in the enclosing function.
	inline := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				inline[lit] = true
			}
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				inline[lit] = true
			}
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				delete(inline, lit) // `go func(){...}()` runs elsewhere
			}
		}
		return true
	})
	var desc string
	var scan func(ast.Node)
	scan = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if desc != "" {
				return false
			}
			switch n := n.(type) {
			case *ast.GoStmt:
				return false
			case *ast.FuncLit:
				return inline[n]
			case *ast.SendStmt:
				desc = "channel send"
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					desc = "channel receive"
					return false
				}
			case *ast.RangeStmt:
				if tv, ok := p.info.Types[n.X]; ok {
					if _, isCh := tv.Type.Underlying().(*types.Chan); isCh {
						desc = "range over channel"
						return false
					}
				}
			case *ast.SelectStmt:
				hasDefault := false
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					desc = "select"
					return false
				}
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							scan(s)
						}
					}
				}
				return false
			case *ast.CallExpr:
				if fn := calleeFunc(p.info, n); fn != nil {
					if desc = blockingCall(fn); desc != "" {
						return false
					}
				}
			}
			return true
		})
	}
	scan(body)
	return desc
}

// ---------------------------------------------------------------------
// Rule 1: goroutine-leak
// ---------------------------------------------------------------------

// goroutineRule requires every `go` statement in module code to be
// provably joinable: a WaitGroup Done/Wait, a ctx.Done or quit-channel
// receive, or a range over a work channel must be reachable from the
// goroutine's entry through the call graph. A goroutine with none of
// these outlives every drain/kill path, which breaks the deterministic
// resume the campaign journal depends on. Deliberately detached
// goroutines are audited with //unsync:allow-goroutine <reason>.
func (m *module) goroutineRule() []Finding {
	g := m.callgraph()
	var out []Finding
	for _, site := range g.gos {
		if m.joinable(site) {
			continue
		}
		if m.allowed("allow-goroutine", site.pos) {
			continue
		}
		out = append(out, m.finding("goroutine-leak", site.pos,
			"goroutine is not provably joinable: no WaitGroup Done/Wait, ctx.Done or quit-channel receive, or work-channel range is reachable from its body — drain/kill paths cannot account for it (audit a deliberately detached goroutine with //unsync:allow-goroutine <reason>)"))
	}
	return out
}

// joinable reports whether a join signal is reachable from the
// goroutine's entry point: scanned directly in its function literal
// body, or in any module function reachable from the entry through the
// call graph. A dynamically resolved or extra-module entry is never
// provably joinable.
func (m *module) joinable(site goSite) bool {
	g := m.callgraph()
	var roots []*types.Func
	if site.lit != nil {
		if joinSignal(site.p, site.lit.Body) {
			return true
		}
		// Module functions referenced inside the literal seed the
		// reachability sweep.
		ast.Inspect(site.lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := site.p.info.Uses[id].(*types.Func); ok &&
					fn.Pkg() != nil && hasModulePrefix(m.path, fn.Pkg().Path()) {
					roots = append(roots, fn.Origin())
				}
			}
			return true
		})
	} else {
		fn := calleeFunc(site.p.info, site.call)
		if fn == nil || fn.Pkg() == nil || !hasModulePrefix(m.path, fn.Pkg().Path()) {
			return false
		}
		roots = append(roots, fn)
	}
	if len(roots) == 0 {
		return false
	}
	for fn := range g.reach(roots...) {
		if body, ok := g.bodies[fn]; ok && joinSignal(g.pkgOf[fn], body) {
			return true
		}
	}
	return false
}

// joinSignal scans one body for an operation that ties the goroutine's
// lifetime to a collector: WaitGroup Done/Wait, ctx.Done(), a receive
// in a select, a range over a channel, or a bare receive from a
// struct{}-typed quit channel.
func joinSignal(p *pkgInfo, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil && commIsRecv(cc.Comm) {
					found = true
					return false
				}
			}
		case *ast.RangeStmt:
			if tv, ok := p.info.Types[n.X]; ok {
				if _, isCh := tv.Type.Underlying().(*types.Chan); isCh {
					found = true
					return false
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if tv, ok := p.info.Types[n.X]; ok {
					if ch, isCh := tv.Type.Underlying().(*types.Chan); isCh && isEmptyStruct(ch.Elem()) {
						found = true
						return false
					}
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(p.info, n)
			if fn == nil {
				return true
			}
			if (fn.Name() == "Done" || fn.Name() == "Wait") && recvTypeString(fn) == "*sync.WaitGroup" {
				found = true
				return false
			}
			if fn.Name() == "Done" {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && isContextType(sig.Recv().Type()) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// commIsRecv reports whether a select communication clause is a receive.
func commIsRecv(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		u, ok := ast.Unparen(s.X).(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr)
			return ok && u.Op == token.ARROW
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Rule 2: ctx-propagation
// ---------------------------------------------------------------------

// ctxRule flags a call to the context-less base of a Context pair from
// any scope with a context.Context in reach (a parameter of the
// enclosing function or of an enclosing literal): the wrapper silently
// drops cancellation, exactly the bug class the engine's cancellation
// quantum exists to prevent. Audited sites carry //unsync:allow-ctx.
func (m *module) ctxRule() []Finding {
	ci := m.conc()
	var fs []Finding
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				inScope := false
				if sig, ok := fn.Type().(*types.Signature); ok {
					inScope = hasCtxParam(sig)
				}
				m.walkCtx(p, fd.Body, inScope, ci.pairs, &fs)
			}
		}
	}
	return fs
}

func (m *module) walkCtx(p *pkgInfo, body ast.Node, inScope bool, pairs map[*types.Func]*types.Func, fs *[]Finding) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal parameter can bring a context into scope; a
			// captured one stays in scope. Scope never shrinks.
			if !inScope {
				if tv, ok := p.info.Types[n]; ok {
					if sig, ok := tv.Type.(*types.Signature); ok && hasCtxParam(sig) {
						m.walkCtx(p, n.Body, true, pairs, fs)
						return false
					}
				}
			}
			return true
		case *ast.CallExpr:
			if !inScope {
				return true
			}
			fn := calleeFunc(p.info, n)
			if fn == nil {
				return true
			}
			variant, ok := pairs[fn]
			if !ok {
				return true
			}
			if m.allowed("allow-ctx", n.Pos()) {
				return true
			}
			*fs = append(*fs, m.finding("ctx-propagation", n.Pos(),
				"call to %s drops the in-scope context; call %s with it instead so cancellation stays threaded (or audit with //unsync:allow-ctx)",
				qualified(fn), qualified(variant)))
		}
		return true
	})
}

// ---------------------------------------------------------------------
// Rule 3: lock-held-blocking
// ---------------------------------------------------------------------

// lockRule forbids blocking operations while a sync.Mutex/RWMutex is
// provably held: channel sends/receives, selects without default,
// channel ranges, time.Sleep, fsync, WaitGroup.Wait, and calls to
// module functions the summary pass classified as blocking (including
// every Drive/Run Context pair and resilience.Retry). A blocked holder
// stalls every contender — under kill/drain that is a deadlock. The
// walk is flow-aware: early unlocks release, `defer mu.Unlock()` keeps
// the lock to function exit, branch bodies fork the held set, IIFEs and
// deferred closures run with the current set, and `go` bodies start
// empty. Audited sites carry //unsync:allow-lock-held.
func (m *module) lockRule() []Finding {
	ci := m.conc()
	var fs []Finding
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				w := &lockWalker{m: m, p: p, ci: ci, fs: &fs}
				w.stmts(fd.Body.List, make(map[string]bool))
			}
		}
	}
	return fs
}

type lockWalker struct {
	m  *module
	p  *pkgInfo
	ci *concInfo
	fs *[]Finding
}

func (w *lockWalker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key, op := w.lockOp(call); op != "" {
				if op == "lock" {
					held[key] = true
				} else {
					delete(held, key)
				}
				return
			}
		}
		w.expr(s.X, held)
	case *ast.DeferStmt:
		if _, op := w.lockOp(s.Call); op == "unlock" {
			return // released at return: held through the rest of the body
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			// A deferred closure runs on this goroutine with whatever is
			// still held at return; findings anchor at the inner call.
			w.stmts(lit.Body.List, maps.Clone(held))
		} else {
			w.call(s.Call, held)
		}
		for _, a := range s.Call.Args {
			w.expr(a, held)
		}
	case *ast.SendStmt:
		w.block(s.Arrow, "channel send", held)
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.stmts(s.Body.List, maps.Clone(held))
		if s.Else != nil {
			w.stmt(s.Else, maps.Clone(held))
		}
	case *ast.ForStmt:
		inner := maps.Clone(held)
		if s.Init != nil {
			w.stmt(s.Init, inner)
		}
		if s.Cond != nil {
			w.expr(s.Cond, inner)
		}
		w.stmts(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		if tv, ok := w.p.info.Types[s.X]; ok {
			if _, isCh := tv.Type.Underlying().(*types.Chan); isCh {
				w.block(s.For, "range over channel", held)
			}
		}
		w.expr(s.X, held)
		w.stmts(s.Body.List, maps.Clone(held))
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.block(s.Select, "select without default", held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, maps.Clone(held))
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, maps.Clone(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, maps.Clone(held))
			}
		}
	case *ast.GoStmt:
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, make(map[string]bool)) // fresh goroutine: nothing held
		}
		for _, a := range s.Call.Args {
			w.expr(a, held)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	}
}

// expr scans an expression for blocking operations under the held set.
// Function literal values are skipped (they run later, elsewhere);
// immediately-invoked literals run here and are walked with the current
// held set.
func (w *lockWalker) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				w.stmts(lit.Body.List, maps.Clone(held))
				for _, a := range n.Args {
					w.expr(a, held)
				}
				return false
			}
			w.call(n, held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.block(n.OpPos, "channel receive", held)
			}
		}
		return true
	})
}

func (w *lockWalker) call(call *ast.CallExpr, held map[string]bool) {
	fn := calleeFunc(w.p.info, call)
	if fn == nil {
		return
	}
	if desc := blockingCall(fn); desc != "" {
		w.block(call.Pos(), desc, held)
	} else if fn.Pkg() != nil && hasModulePrefix(w.m.path, fn.Pkg().Path()) && w.ci.blocking[fn] {
		w.block(call.Pos(), fmt.Sprintf("call to %s, which blocks (%s)", qualified(fn), w.ci.why[fn]), held)
	}
}

func (w *lockWalker) block(pos token.Pos, desc string, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	if w.m.allowed("allow-lock-held", pos) {
		return
	}
	locks := make([]string, 0, len(held))
	for k := range held {
		locks = append(locks, k)
	}
	sort.Strings(locks)
	*w.fs = append(*w.fs, w.m.finding("lock-held-blocking", pos,
		"%s while %s is held; a blocked holder stalls every contender and deadlocks drain/kill paths — move the operation outside the critical section (or audit with //unsync:allow-lock-held)",
		desc, strings.Join(locks, ", ")))
}

// lockOp classifies a call as a mutex acquire or release, keyed by the
// receiver expression (so `s.mu` and `j.mu` track independently, and an
// embedded mutex keys on the embedding value).
func (w *lockWalker) lockOp(call *ast.CallExpr) (key, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, _ := w.p.info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", ""
	}
	if recv := recvTypeString(fn); recv != "*sync.Mutex" && recv != "*sync.RWMutex" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), "lock"
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), "unlock"
	}
	return "", ""
}
