package lint

import (
	"go/ast"
	"go/types"
)

// Rule: blocking-send
//
// In the streaming packages (cfg.StreamDirs) a bare channel send
// inside a for/range loop is a shutdown hazard: pump loops run until
// cancelled, and a send with no escape hatch deadlocks the loop the
// moment its consumer stops draining — the drain/kill invariants the
// concurrency layer guards then never fire. The rule requires every
// send statement lexically inside a loop to be a communication clause
// of a select that also offers an exit: a receive from a done-style
// channel (a .Done() call or any chan struct{} quit signal) or a
// default clause (the non-blocking fanout idiom — a send that cannot
// stall needs no interrupt).
//
// Function literals reset the loop context: a goroutine or deferred
// closure launched per iteration blocks itself, not the loop (and the
// goroutine-leak rule already polices its joinability). Deliberate
// exceptions are audited with //unsync:allow-send <reason>.
func (m *module) blockingSendRule() []Finding {
	var out []Finding
	for _, p := range m.pkgs {
		if !isDeterministic(m.cfg.StreamDirs, p.relDir) {
			continue
		}
		w := &sendWalker{m: m, p: p}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					w.block(fd.Body, 0)
				}
			}
		}
		out = append(out, w.out...)
	}
	return out
}

// sendWalker walks statements tracking lexical loop depth.
type sendWalker struct {
	m   *module
	p   *pkgInfo
	out []Finding
}

func (w *sendWalker) block(b *ast.BlockStmt, depth int) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		w.stmt(s, depth)
	}
}

func (w *sendWalker) stmt(s ast.Stmt, depth int) {
	switch st := s.(type) {
	case *ast.SendStmt:
		w.flag(st, depth)
	case *ast.ForStmt:
		w.stmt(st.Init, depth)
		w.stmt(st.Post, depth)
		w.block(st.Body, depth+1)
	case *ast.RangeStmt:
		w.block(st.Body, depth+1)
	case *ast.SelectStmt:
		compliant := w.selectCompliant(st)
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if send, isSend := cc.Comm.(*ast.SendStmt); isSend && !compliant {
				w.flag(send, depth)
			}
			for _, b := range cc.Body {
				w.stmt(b, depth)
			}
		}
	case *ast.BlockStmt:
		w.block(st, depth)
	case *ast.IfStmt:
		w.stmt(st.Init, depth)
		w.block(st.Body, depth)
		w.stmt(st.Else, depth)
	case *ast.SwitchStmt:
		w.stmt(st.Init, depth)
		for _, c := range st.Body.List {
			for _, b := range c.(*ast.CaseClause).Body {
				w.stmt(b, depth)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init, depth)
		for _, c := range st.Body.List {
			for _, b := range c.(*ast.CaseClause).Body {
				w.stmt(b, depth)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, depth)
	case *ast.GoStmt, *ast.DeferStmt:
		// A per-iteration goroutine or deferred closure blocks itself,
		// not the loop; its body starts outside any loop.
		var call *ast.CallExpr
		if g, ok := st.(*ast.GoStmt); ok {
			call = g.Call
		} else {
			call = st.(*ast.DeferStmt).Call
		}
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			w.block(lit.Body, 0)
		}
	case *ast.ExprStmt:
		// IIFEs and other function literals likewise reset the context.
		ast.Inspect(st.X, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w.block(lit.Body, 0)
				return false
			}
			return true
		})
	case *ast.AssignStmt, *ast.DeclStmt, *ast.ReturnStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w.block(lit.Body, 0)
				return false
			}
			return true
		})
	}
}

// flag reports a send at the given loop depth (bare sends outside any
// loop cannot wedge a pump and pass).
func (w *sendWalker) flag(send *ast.SendStmt, depth int) {
	if depth == 0 {
		return
	}
	if w.m.allowed("allow-send", send.Pos()) {
		return
	}
	w.out = append(w.out, w.m.finding("blocking-send", send.Pos(),
		"channel send inside a pump loop has no shutdown escape: wrap it in a select with a ctx.Done()-style receive (or a default clause for non-blocking taps), or audit with //unsync:allow-send <reason>"))
}

// selectCompliant reports whether a select offers an exit alongside its
// sends: a default clause, or a receive from a done-style channel.
func (w *sendWalker) selectCompliant(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			return true // default: the send cannot block
		}
		if recv := commReceiveExpr(cc.Comm); recv != nil && w.isDoneChannel(recv.X) {
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
func (w *sendWalker) isDoneChannel(ch ast.Expr) bool {
	if call, ok := ch.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
	}
	if tv, ok := w.p.info.Types[ch]; ok {
		if c, ok := tv.Type.Underlying().(*types.Chan); ok {
			if st, ok := c.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true
			}
		}
	}
	return false
}
