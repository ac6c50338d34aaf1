package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// panicRule reports panic sites reachable from the public unsync
// package API. Library users must get errors, not crashes, for bad
// input; panics are reserved for audited internal invariant checks
// annotated //unsync:allow-panic <reason>.
//
// Reachability is computed over a conservative static call graph:
//
//   - every reference to a function or method inside a body adds an
//     edge (this over-approximates calls through stored function
//     values such as commit hooks);
//   - a call through an interface method adds edges to that method on
//     every module type implementing the interface (class-hierarchy
//     style resolution);
//   - panics inside function literals are attributed to the enclosing
//     declared function.
//
// Roots are the exported functions of the public package plus the
// exported methods of every type it exports (including types exported
// through aliases to internal packages).
func (m *module) panicRule() []Finding {
	pub := m.byPath[importPath(m.path, m.cfg.PublicDir)]
	if pub == nil {
		return nil
	}

	g := m.callgraph()

	var roots []*types.Func
	scope := pub.pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			roots = append(roots, o)
		case *types.TypeName:
			ms := types.NewMethodSet(types.NewPointer(o.Type()))
			for i := 0; i < ms.Len(); i++ {
				if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Exported() {
					roots = append(roots, fn.Origin())
				}
			}
		}
	}

	parent := g.reach(roots...)
	var fs []Finding
	for _, site := range g.panics {
		if _, ok := parent[site.fn]; !ok {
			continue
		}
		// Consult the directive only for reachable panics: an
		// //unsync:allow-panic on an unreachable site suppresses nothing
		// and must surface as stale.
		if m.allowed("allow-panic", site.pos) {
			continue
		}
		fs = append(fs, m.finding("panic-path", site.pos,
			"panic reachable from the public unsync API via %s; return an error or audit the invariant with //unsync:allow-panic <reason>",
			chain(parent, site.fn)))
	}
	return fs
}

// chain renders the call chain root -> ... -> fn discovered by reach.
func chain(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var names []string
	for f := fn; f != nil; f = parent[f] {
		names = append(names, qualified(f))
		if len(names) > 8 {
			names = append(names, "...")
			break
		}
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

func qualified(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + name
	}
	return name
}

type panicSite struct {
	fn  *types.Func
	pos token.Pos
}

// goSite is one `go` statement: a goroutine entry point rooted in the
// call graph. Either lit (a function literal body) or the statically
// resolved callee of the go call identifies the entry; both may be
// missing for calls through plain function values.
type goSite struct {
	pos  token.Pos
	fn   *types.Func // enclosing declared function
	call *ast.CallExpr
	lit  *ast.FuncLit
	p    *pkgInfo
}

type callGraph struct {
	edges map[*types.Func][]*types.Func
	// bodies and pkgOf let rules scan the source of any declared
	// function reached through the graph with the right types.Info.
	bodies map[*types.Func]*ast.BlockStmt
	pkgOf  map[*types.Func]*pkgInfo
	panics []panicSite
	gos    []goSite
}

// callgraph builds the module's call graph once and caches it; the
// panic rule and every concurrency rule share it.
func (m *module) callgraph() *callGraph {
	if m.cg == nil {
		m.cg = newCallGraph(m)
	}
	return m.cg
}

func newCallGraph(m *module) *callGraph {
	g := &callGraph{
		edges:  make(map[*types.Func][]*types.Func),
		bodies: make(map[*types.Func]*ast.BlockStmt),
		pkgOf:  make(map[*types.Func]*pkgInfo),
	}

	// All named (non-interface) types in the module, for interface
	// method resolution.
	var concrete []*types.Named
	for _, p := range m.pkgs {
		pscope := p.pkg.Scope()
		for _, name := range pscope.Names() {
			tn, ok := pscope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			concrete = append(concrete, named)
		}
	}

	abstract := make(map[*types.Func]bool)
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
				g.bodies[fn] = fd.Body
				g.pkgOf[fn] = p
				g.walkBody(m, p, fn, fd.Body, abstract)
			}
		}
	}

	// Resolve interface methods to their module implementations.
	for af := range abstract {
		sig, ok := af.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, named := range concrete {
			ptr := types.NewPointer(named)
			if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
				continue
			}
			ms := types.NewMethodSet(ptr)
			sel := ms.Lookup(af.Pkg(), af.Name())
			if sel == nil {
				continue
			}
			if impl, ok := sel.Obj().(*types.Func); ok {
				g.edges[af] = append(g.edges[af], impl)
			}
		}
	}

	// Deterministic edge order (BFS result does not depend on it, but
	// the lint tool itself must be reproducible).
	for fn, callees := range g.edges {
		sort.Slice(callees, func(i, j int) bool { return qualified(callees[i]) < qualified(callees[j]) })
		g.edges[fn] = callees
	}
	sort.Slice(g.panics, func(i, j int) bool { return g.panics[i].pos < g.panics[j].pos })
	sort.Slice(g.gos, func(i, j int) bool { return g.gos[i].pos < g.gos[j].pos })
	return g
}

// walkBody records panic sites, goroutine launches and call edges of
// one declared function. Every reference to a module function inside
// the body adds an edge — plain calls, method values, deferred calls
// and `go` statement callees alike — which over-approximates calls
// through stored function values.
func (g *callGraph) walkBody(m *module, p *pkgInfo, fn *types.Func, body *ast.BlockStmt, abstract map[*types.Func]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			site := goSite{pos: n.Pos(), fn: fn, call: n.Call, p: p}
			site.lit, _ = n.Call.Fun.(*ast.FuncLit)
			g.gos = append(g.gos, site)
		case *ast.Ident:
			switch obj := p.info.Uses[n].(type) {
			case *types.Builtin:
				if obj.Name() == "panic" {
					g.panics = append(g.panics, panicSite{fn: fn, pos: n.Pos()})
				}
			case *types.Func:
				// Only track the module's own functions; stdlib bodies are
				// out of scope. Origin() folds instantiated generic
				// methods onto the declaration that owns the body.
				if obj.Pkg() != nil && hasModulePrefix(m.path, obj.Pkg().Path()) {
					callee := obj.Origin()
					g.edges[fn] = append(g.edges[fn], callee)
					if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
						if types.IsInterface(sig.Recv().Type()) {
							abstract[callee] = true
						}
					}
				}
			}
		}
		return true
	})
}

// reach returns every function reachable from the roots over the call
// graph, roots included, each mapped to the caller a breadth-first
// search first reached it from (nil for a root) — one shortest call
// chain per function.
func (g *callGraph) reach(roots ...*types.Func) map[*types.Func]*types.Func {
	parent := make(map[*types.Func]*types.Func)
	var queue []*types.Func
	for _, r := range roots {
		if _, seen := parent[r]; r != nil && !seen {
			parent[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range g.edges[fn] {
			if _, seen := parent[callee]; !seen {
				parent[callee] = fn
				queue = append(queue, callee)
			}
		}
	}
	return parent
}
