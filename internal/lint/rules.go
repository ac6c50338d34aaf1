package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// randRule forbids math/rand (and math/rand/v2) in the deterministic
// simulator packages: its global state is seeded from the wall clock,
// so any use breaks bit-reproducible replay. The one exemption is the
// repository's seeded xorshift implementation (cfg.RNGFile).
func (m *module) randRule() []Finding {
	var fs []Finding
	for _, p := range m.pkgs {
		if !p.deterministic {
			continue
		}
		for _, f := range p.files {
			if m.relFile(f.Pos()) == m.cfg.RNGFile {
				continue
			}
			// The import itself.
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if path == "math/rand" || path == "math/rand/v2" {
					fs = append(fs, m.finding("rand", spec.Pos(),
						"import of %s in deterministic simulator package %s (use the seeded xorshift rng in %s)",
						path, p.path, m.cfg.RNGFile))
				}
			}
			// Every use site, so the diagnostic lands on the call.
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := p.info.Uses[id].(*types.PkgName)
				if !ok {
					return true
				}
				imported := pn.Imported().Path()
				if imported == "math/rand" || imported == "math/rand/v2" {
					fs = append(fs, m.finding("rand", sel.Pos(),
						"call of %s.%s in deterministic simulator package %s (use the seeded xorshift rng in %s)",
						imported, sel.Sel.Name, p.path, m.cfg.RNGFile))
				}
				return true
			})
		}
	}
	return fs
}

// wallclockRule forbids time.Now and time.Since everywhere in the
// module: simulated time is the only clock the simulator may observe.
// Progress/benchmark timing is audited with //unsync:allow-wallclock.
func (m *module) wallclockRule() []Finding {
	var fs []Finding
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := p.info.Uses[id].(*types.PkgName)
				if !ok || pn.Imported().Path() != "time" {
					return true
				}
				if name := sel.Sel.Name; name == "Now" || name == "Since" {
					if !m.allowed("allow-wallclock", sel.Pos()) {
						fs = append(fs, m.finding("wallclock", sel.Pos(),
							"time.%s reads the wall clock; simulation must depend only on simulated time (annotate audited timing code with //unsync:allow-wallclock)",
							name))
					}
				}
				return true
			})
		}
	}
	return fs
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

// unboundedRule flags fault-trial loops that lack a step/rollback
// budget. In the fault-trial packages (cfg.FaultDirs) a for-loop whose
// condition observes a machine's Halted flag is gated on the faulted
// machine making progress — but an injected upset can corrupt the very
// state that drives progress (a loop counter, the PC), so `for
// !a.Halted` alone can spin forever. The budget must live in the loop
// condition itself (a numeric comparison alongside the Halted test),
// where it is impossible to skip; audited exceptions carry
// //unsync:allow-unbounded.
func (m *module) unboundedRule() []Finding {
	var fs []Finding
	for _, p := range m.pkgs {
		if !isDeterministic(m.cfg.FaultDirs, p.relDir) {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				loop, ok := n.(*ast.ForStmt)
				if !ok || loop.Cond == nil {
					return true
				}
				if !mentionsHalted(loop.Cond) || hasNumericBound(p, loop.Cond) {
					return true
				}
				if m.allowed("allow-unbounded", loop.Pos()) {
					return true
				}
				fs = append(fs, m.finding("unbounded", loop.Pos(),
					"fault-trial loop gated only on Halted; a faulted machine may never halt — add a numeric step/rollback budget to the loop condition (or annotate an audited site with //unsync:allow-unbounded)"))
				return true
			})
		}
	}
	return fs
}

// mentionsHalted reports whether the expression reads a field or
// method named Halted.
func mentionsHalted(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Halted" {
			found = true
			return false
		}
		return !found
	})
	return found
}

// hasNumericBound reports whether the expression contains an ordered
// comparison (<, <=, >, >=) between numeric operands — the shape of a
// step/rollback budget check.
func hasNumericBound(p *pkgInfo, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return !found
		}
		switch bin.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			if tv, ok := p.info.Types[bin.X]; ok {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
					found = true
					return false
				}
			}
		}
		return !found
	})
	return found
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

// sleepRule flags time.Sleep inside a for-loop anywhere except the
// resilience package (cfg.ResilienceDir): a bare sleep in a loop is a
// hand-rolled retry — fixed cadence, no jitter, no context, no cap —
// exactly the synchronized-stampede shape resilience.Retry with its
// full-jitter Backoff exists to replace. Polling loops with an audited
// reason carry //unsync:allow-sleep.
func (m *module) sleepRule() []Finding {
	var fs []Finding
	seen := map[token.Pos]bool{}
	for _, p := range m.pkgs {
		if p.relDir == m.cfg.ResilienceDir ||
			(len(m.cfg.ResilienceDir) > 0 && len(p.relDir) > len(m.cfg.ResilienceDir) &&
				p.relDir[:len(m.cfg.ResilienceDir)+1] == m.cfg.ResilienceDir+"/") {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				default:
					return true
				}
				ast.Inspect(body, func(inner ast.Node) bool {
					// Sleeps inside a nested function literal belong to
					// that function, not this loop.
					if _, isLit := inner.(*ast.FuncLit); isLit {
						return false
					}
					call, ok := inner.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Sleep" {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					pn, ok := p.info.Uses[id].(*types.PkgName)
					if !ok || pn.Imported().Path() != "time" {
						return true
					}
					if seen[call.Pos()] || m.allowed("allow-sleep", call.Pos()) {
						return true
					}
					seen[call.Pos()] = true
					fs = append(fs, m.finding("sleep", call.Pos(),
						"time.Sleep in a loop is a hand-rolled retry; use resilience.Retry with a jittered Backoff, or audit a genuine polling loop with //unsync:allow-sleep"))
					return true
				})
				return true
			})
		}
	}
	return fs
}

// timerLeakRule flags time.After inside a for-loop (module-wide): each
// call allocates a timer the runtime holds until it fires, so a
// select-with-After in a streaming or heartbeat loop strands one timer
// per iteration — under churn, that is an unbounded pile of pending
// timers. The fix is one time.NewTimer hoisted out of the loop with the
// Stop/drain/Reset discipline (see internal/fabric's lease heartbeat);
// a loop whose iteration cadence genuinely bounds the pile can carry
// //unsync:allow-timer with the reason.
func (m *module) timerLeakRule() []Finding {
	var fs []Finding
	seen := map[token.Pos]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				default:
					return true
				}
				ast.Inspect(body, func(inner ast.Node) bool {
					// An After inside a nested function literal belongs to
					// that function, not this loop.
					if _, isLit := inner.(*ast.FuncLit); isLit {
						return false
					}
					call, ok := inner.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "After" {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					pn, ok := p.info.Uses[id].(*types.PkgName)
					if !ok || pn.Imported().Path() != "time" {
						return true
					}
					if seen[call.Pos()] || m.allowed("allow-timer", call.Pos()) {
						return true
					}
					seen[call.Pos()] = true
					fs = append(fs, m.finding("timer-leak", call.Pos(),
						"time.After in a loop strands one pending timer per iteration; hoist a time.NewTimer with Stop/drain/Reset, or audit a bounded-cadence loop with //unsync:allow-timer"))
					return true
				})
				return true
			})
		}
	}
	return fs
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
