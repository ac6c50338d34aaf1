package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
)

// forbiddenCall is one row of the forbidden-call table: references to
// a package's members that the module may not make in some scope. The
// rand, wallclock, sleep and timer-leak rules differ only in these
// fields, so one walk (forbiddenCallRule) applies them all.
type forbiddenCall struct {
	rule  string
	pkgs  []string // import paths of the forbidden package
	names []string // forbidden members; nil forbids every member
	// in reports whether the row applies to a file (module-relative
	// path) of package p; nil applies it module-wide.
	in func(m *module, p *pkgInfo, file string) bool
	// loop restricts the row to calls lexically inside a for/range
	// body; a function literal's body starts outside any loop.
	loop  bool
	allow string // audit directive, "" when the rule admits none
	// msg formats a finding with %[1]s the package path, %[2]s the
	// member, %[3]s the offending package and %[4]s cfg.RNGFile.
	// importMsg, when set, also reports the import declaration.
	msg, importMsg string
}

var forbiddenCalls = []forbiddenCall{
	{
		// math/rand's global state is seeded from the wall clock, so any
		// use in the deterministic simulator packages breaks
		// bit-reproducible replay. The one exemption is the seeded
		// xorshift implementation (cfg.RNGFile).
		rule: "rand",
		pkgs: []string{"math/rand", "math/rand/v2"},
		in: func(m *module, p *pkgInfo, file string) bool {
			return p.deterministic && file != m.cfg.RNGFile
		},
		msg:       "call of %[1]s.%[2]s in deterministic simulator package %[3]s (use the seeded xorshift rng in %[4]s)",
		importMsg: "import of %[1]s in deterministic simulator package %[3]s (use the seeded xorshift rng in %[4]s)",
	},
	{
		// Simulated time is the only clock the simulator may observe;
		// progress and benchmark timing is audited.
		rule:  "wallclock",
		pkgs:  []string{"time"},
		names: []string{"Now", "Since"},
		allow: "allow-wallclock",
		msg:   "time.%[2]s reads the wall clock; simulation must depend only on simulated time (annotate audited timing code with //unsync:allow-wallclock)",
	},
	{
		// A bare sleep in a loop is a hand-rolled retry — fixed cadence,
		// no jitter, no context, no cap — the synchronized-stampede
		// shape resilience.Retry with its full-jitter Backoff replaces.
		// Only the package implementing that backoff (cfg.ResilienceDir)
		// may sleep in a loop.
		rule:  "sleep",
		pkgs:  []string{"time"},
		names: []string{"Sleep"},
		in: func(m *module, p *pkgInfo, _ string) bool {
			return !inDirs([]string{m.cfg.ResilienceDir}, p.relDir)
		},
		loop:  true,
		allow: "allow-sleep",
		msg:   "time.%[2]s in a loop is a hand-rolled retry; use resilience.Retry with a jittered Backoff, or audit a genuine polling loop with //unsync:allow-sleep",
	},
	{
		// Each time.After allocates a timer the runtime holds until it
		// fires, so a select-with-After in a streaming or heartbeat loop
		// strands one timer per iteration — under churn, an unbounded
		// pile. The fix is one time.NewTimer stopped on every exit
		// (resilience.Retry's backoff wait), hoisted with the
		// Stop/drain/Reset discipline when the loop reuses it.
		rule:  "timer-leak",
		pkgs:  []string{"time"},
		names: []string{"After"},
		loop:  true,
		allow: "allow-timer",
		msg:   "time.%[2]s in a loop strands one pending timer per iteration; hoist a time.NewTimer with Stop/drain/Reset, or audit a bounded-cadence loop with //unsync:allow-timer",
	},
}

// forbiddenCallRule applies the forbiddenCalls table in one walk per
// file and returns the findings keyed by rule. The walk (inspectLoops)
// carries the for/range nesting depth, so a loop-only row sees each
// call once however deeply its loops nest.
func (m *module) forbiddenCallRule() map[string][]Finding {
	fs := make(map[string][]Finding)
	for _, p := range m.pkgs {
		for _, f := range p.files {
			file := m.relFile(f.Pos())
			var rows []*forbiddenCall
			for i := range forbiddenCalls {
				if r := &forbiddenCalls[i]; r.in == nil || r.in(m, p, file) {
					rows = append(rows, r)
				}
			}
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				for _, r := range rows {
					if r.importMsg != "" && slices.Contains(r.pkgs, path) {
						fs[r.rule] = append(fs[r.rule], m.finding(r.rule, spec.Pos(), r.importMsg, path, "", p.path, m.cfg.RNGFile))
					}
				}
			}
			// callee is the Fun of the call expression visited last: the
			// walk is pre-order, so a selector equal to it is that call's
			// callee rather than a function value.
			var callee *ast.SelectorExpr
			inspectLoops(f, func(n ast.Node, loops int) {
				switch n := n.(type) {
				case *ast.CallExpr:
					callee, _ = n.Fun.(*ast.SelectorExpr)
				case *ast.SelectorExpr:
					id, ok := n.X.(*ast.Ident)
					if !ok {
						return
					}
					pn, ok := p.info.Uses[id].(*types.PkgName)
					if !ok {
						return
					}
					path, name := pn.Imported().Path(), n.Sel.Name
					for _, r := range rows {
						switch {
						case !slices.Contains(r.pkgs, path),
							r.names != nil && !slices.Contains(r.names, name),
							r.loop && (loops == 0 || n != callee),
							r.allow != "" && m.allowed(r.allow, n.Pos()):
							continue
						}
						fs[r.rule] = append(fs[r.rule], m.finding(r.rule, n.Pos(), r.msg, path, name, p.path, m.cfg.RNGFile))
					}
				}
			})
		}
	}
	return fs
}

// inspectLoops visits every node under root in ast.Inspect's pre-order,
// passing visit the number of for/range bodies that enclose the node.
// A function literal's body starts again at zero: it runs when called,
// not once per iteration of the loop that defines it.
func inspectLoops(root ast.Node, visit func(n ast.Node, loops int)) {
	var walk func(n ast.Node, loops int)
	walk = func(n ast.Node, loops int) {
		ast.Inspect(n, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			visit(n, loops)
			var head []ast.Node
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Type, loops)
				walk(n.Body, 0)
				return false
			case *ast.ForStmt:
				head, body = []ast.Node{n.Init, n.Cond, n.Post}, n.Body
			case *ast.RangeStmt:
				head, body = []ast.Node{n.Key, n.Value, n.X}, n.Body
			default:
				return true
			}
			for _, h := range head {
				if h != nil {
					walk(h, loops)
				}
			}
			walk(body, loops+1)
			return false
		})
	}
	walk(root, 0)
}

// maprangeRule flags range-over-map loops in the deterministic packages
// whose body performs an order-sensitive operation: Go randomizes map
// iteration order, so appending to a slice, producing output, sending
// on a channel, or accumulating floating point inside such a loop makes
// results differ from run to run. Order-independent bodies (pure map
// rebuilds, commutative integer folds, all-must-hold checks) are fine;
// audited sites carry //unsync:allow-maprange.
func (m *module) maprangeRule() []Finding {
	var fs []Finding
	for _, p := range m.pkgs {
		if !p.deterministic {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := p.info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				// Find the sink before consulting the directive: a
				// directive on an order-insensitive loop suppresses
				// nothing and must surface as stale.
				if sink := m.orderSensitiveSink(p, rng.Body); sink != "" {
					if m.allowed("allow-maprange", rng.Pos()) {
						return true
					}
					fs = append(fs, m.finding("maprange", rng.Pos(),
						"range over map with order-sensitive body (%s); map iteration order is randomized — iterate sorted keys or annotate with //unsync:allow-maprange",
						sink))
				}
				return true
			})
		}
	}
	return fs
}

// orderSensitiveSink scans a range-over-map body for operations whose
// result depends on iteration order. It returns a description of the
// first such sink, or "".
func (m *module) orderSensitiveSink(p *pkgInfo, body *ast.BlockStmt) string {
	var sink string
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if b, ok := p.info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
					sink = "append"
					return false
				}
			case *ast.SelectorExpr:
				if id, ok := fun.X.(*ast.Ident); ok {
					if pn, ok := p.info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
						sink = "fmt output"
						return false
					}
				}
			}
		case *ast.SendStmt:
			sink = "channel send"
			return false
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if tv, ok := p.info.Types[lhs]; ok {
						if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
							sink = "floating-point accumulation"
							return false
						}
					}
				}
			}
		}
		return true
	})
	return sink
}

// uncheckedRule flags statements in the deterministic packages that
// call an exported function of this module returning an error and
// discard the result entirely — both plain expression statements and
// `defer pkg.Fn()`, whose return value is always discarded. Findings
// anchor at the call, not the defer keyword, so a diagnostic on a
// deferred call points at the offending expression. A silently ignored
// simulator error can turn a reproducible failure into a silently
// wrong result.
func (m *module) uncheckedRule() []Finding {
	var fs []Finding
	for _, p := range m.pkgs {
		if !p.deterministic {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var call *ast.CallExpr
				switch stmt := n.(type) {
				case *ast.ExprStmt:
					call, _ = ast.Unparen(stmt.X).(*ast.CallExpr)
				case *ast.DeferStmt:
					call = stmt.Call
				}
				if call == nil {
					return true
				}
				fn := calleeFunc(p.info, call)
				if fn == nil || !fn.Exported() || fn.Pkg() == nil {
					return true
				}
				// Only the module's own APIs are in scope.
				if !hasModulePrefix(m.path, fn.Pkg().Path()) {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok {
					return true
				}
				res := sig.Results()
				if res.Len() == 0 {
					return true
				}
				last := res.At(res.Len() - 1).Type()
				if named, ok := last.(*types.Named); !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
					return true
				}
				fs = append(fs, m.finding("unchecked-error", call.Pos(),
					"result of %s.%s returns an error that is discarded; handle it or assign it explicitly",
					fn.Pkg().Name(), fn.Name()))
				return true
			})
		}
	}
	return fs
}

// measureLoopRule keeps the measurement discipline in ONE place: a
// ResetStats call marks the warmup→measure transition of a hand-rolled
// run loop, and history shows such copies drift (different warmup
// gating, different injection clocks) until results stop being
// comparable across schemes. Only the engine file may make that call.
// Delegating ResetStats methods (a pair resetting its cores) are
// structural, not loops, and stay legal; audited exceptions carry
// //unsync:allow-measure-loop.
func (m *module) measureLoopRule() []Finding {
	if m.cfg.EngineFile == "" {
		return nil
	}
	var fs []Finding
	for _, p := range m.pkgs {
		if !p.deterministic {
			continue
		}
		for _, f := range p.files {
			if m.relFile(f.Pos()) == m.cfg.EngineFile {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fd.Name.Name == "ResetStats" {
					continue // delegation inside a ResetStats method
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "ResetStats" {
						return true
					}
					if m.allowed("allow-measure-loop", call.Pos()) {
						return true
					}
					fs = append(fs, m.finding("measureloop", call.Pos(),
						"ResetStats outside the measurement engine (%s) marks a hand-rolled warmup/measure loop; run the machine through cmp.Drive instead (or annotate an audited site with //unsync:allow-measure-loop)",
						m.cfg.EngineFile))
					return true
				})
			}
		}
	}
	return fs
}

func hasModulePrefix(modPath, pkgPath string) bool {
	return pkgPath == modPath || len(pkgPath) > len(modPath) &&
		pkgPath[:len(modPath)] == modPath && pkgPath[len(modPath)] == '/'
}

// calleeFunc resolves the statically called function of a call
// expression, or nil for builtins, conversions and dynamic calls.
// Instantiated generics normalize to their origin, so call sites match
// the declared bodies the call graph and summaries are keyed by.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// laneAllocRule guards the batched lane engine's hot loops: the step
// path of the structure-of-arrays trial engine (cfg.BatchFiles) runs
// once per lane per instruction, so a heap allocation against
// lane-indexed state there turns a throughput kernel into an allocator
// benchmark. A builtin append or make in a statement that indexes
// lane state must either move out of the per-step path or carry an
// //unsync:allow-alloc audit justifying the allocation. Map types are
// rejected outright in those files: a map assignment hashes and grows
// its table per store, and cloning one per fork costs the whole map
// (lane memory is a line table for that reason), so no audit admits
// one.
func (m *module) laneAllocRule() []Finding {
	var fs []Finding
	batch := make(map[string]bool, len(m.cfg.BatchFiles))
	for _, f := range m.cfg.BatchFiles {
		batch[f] = true
	}
	if len(batch) == 0 {
		return nil
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			if !batch[m.relFile(f.Pos())] {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && isMapTyped(p, e) {
					fs = append(fs, m.finding("lane-alloc", e.Pos(),
						"map type in the batch engine: a map store hashes and grows per lane per step and a fork clones the whole map — use slices indexed by lane or a sorted table"))
					return false
				}
				// Only leaf statements: an allocation and a lane index in
				// the same assignment or expression statement is what
				// makes the alloc per-lane.
				switch n.(type) {
				case *ast.AssignStmt, *ast.ExprStmt:
				default:
					return true
				}
				call := builtinAlloc(p, n)
				if call == nil || !containsIndex(n) {
					return true
				}
				if m.allowed("allow-alloc", call.Pos()) {
					return true
				}
				fs = append(fs, m.finding("lane-alloc", call.Pos(),
					"per-lane heap allocation in the batch engine: append/make on lane-indexed state runs once per lane per step — hoist the allocation out of the step path or audit it with //unsync:allow-alloc"))
				return true
			})
		}
	}
	return fs
}

// isMapTyped reports whether e is a map type or a map-typed value.
func isMapTyped(p *pkgInfo, e ast.Expr) bool {
	tv, ok := p.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// builtinAlloc returns the first call to the builtin append or make
// inside n, or nil.
func builtinAlloc(p *pkgInfo, n ast.Node) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(n, func(inner ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := inner.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		if b, ok := p.info.Uses[id].(*types.Builtin); ok &&
			(b.Name() == "append" || b.Name() == "make") {
			found = call
			return false
		}
		return true
	})
	return found
}

// containsIndex reports whether n contains an index expression —
// the syntactic marker of lane-indexed state in the batch engine.
func containsIndex(n ast.Node) bool {
	var found bool
	ast.Inspect(n, func(inner ast.Node) bool {
		if _, ok := inner.(*ast.IndexExpr); ok {
			found = true
		}
		return !found
	})
	return found
}
