package lint

import (
	"go/ast"
	"go/types"
)

// Rule: blocking-send
//
// In the streaming packages (cfg.StreamDirs) a bare channel send
// inside a for/range loop is a shutdown hazard: send loops run until
// cancelled, and a send with no escape hatch deadlocks the loop the
// moment its consumer stops draining — the drain/kill invariants the
// concurrency layer guards then never fire. The rule requires every
// send statement lexically inside a loop to be a communication clause
// of a select that also offers an exit: a receive from a done-style
// channel (a .Done() call or any chan struct{} quit signal) or a
// default clause (the non-blocking fanout idiom — a send that cannot
// stall needs no interrupt).
//
// Function literals reset the loop context (inspectLoops): a goroutine
// or deferred closure launched per iteration blocks itself, not the
// loop (and the goroutine-leak rule already polices its joinability).
// Deliberate exceptions are audited with //unsync:allow-send <reason>.
func (m *module) blockingSendRule() []Finding {
	var out []Finding
	for _, p := range m.pkgs {
		if !inDirs(m.cfg.StreamDirs, p.relDir) {
			continue
		}
		for _, f := range p.files {
			// Sends offered by a select with an exit. The walk is
			// pre-order, so a select is seen before its clauses.
			guarded := make(map[*ast.SendStmt]bool)
			inspectLoops(f, func(n ast.Node, loops int) {
				switch n := n.(type) {
				case *ast.SelectStmt:
					if selectCompliant(p, n) {
						for _, c := range n.Body.List {
							if send, ok := c.(*ast.CommClause).Comm.(*ast.SendStmt); ok {
								guarded[send] = true
							}
						}
					}
				case *ast.SendStmt:
					// A bare send outside any loop cannot wedge one.
					if loops == 0 || guarded[n] || m.allowed("allow-send", n.Pos()) {
						return
					}
					out = append(out, m.finding("blocking-send", n.Pos(),
						"channel send inside a send loop has no shutdown escape: wrap it in a select with a ctx.Done()-style receive (or a default clause for non-blocking taps), or audit with //unsync:allow-send <reason>"))
				}
			})
		}
	}
	return out
}

// selectCompliant reports whether a select offers an exit alongside its
// sends: a default clause, or a receive from a done-style channel.
func selectCompliant(p *pkgInfo, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default: the send cannot block
		}
		if recv := commReceiveExpr(cc.Comm); recv != nil && isDoneChannel(p, recv.X) {
			return true
		}
	}
	return false
}

// commReceiveExpr extracts the <-ch receive of a comm clause, if any.
func commReceiveExpr(s ast.Stmt) *ast.UnaryExpr {
	var expr ast.Expr
	switch st := s.(type) {
	case *ast.ExprStmt:
		expr = st.X
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			expr = st.Rhs[0]
		}
	}
	if u, ok := expr.(*ast.UnaryExpr); ok && u.Op.String() == "<-" {
		return u
	}
	return nil
}

// isDoneChannel reports whether ch is a shutdown signal: a .Done()
// call (context.Context and friends) or any channel of struct{} (the
// quit-channel idiom).
func isDoneChannel(p *pkgInfo, ch ast.Expr) bool {
	if call, ok := ch.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
	}
	if tv, ok := p.info.Types[ch]; ok {
		if c, ok := tv.Type.Underlying().(*types.Chan); ok {
			return isEmptyStruct(c.Elem())
		}
	}
	return false
}
