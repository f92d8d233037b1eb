package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// SpanPair enforces the paired-span half of the observability contract
// (DESIGN.md §8): every obs phase opened with Recorder.StartPhase must
// be closed with Span.End on every path out of the scope that opened
// it — either a `defer sp.End()` right after the start, or explicit
// End calls covering each return and the fall-through.
//
// An unclosed span never records its end: its reported duration runs
// to whenever the recorder is next snapshotted, so the phase tree
// overstates where the time went.
//
// The analysis is a per-function, path-sensitive walk over the
// statement list that `sp := X.StartPhase(...)` binds into (so it
// tracks `:=` bindings; spans assigned into pre-declared variables or
// struct fields are out of scope). Passing the span anywhere other
// than as the receiver of a Span method transfers ownership and ends
// tracking.
var SpanPair = &analysis.Analyzer{
	Name: "spanpair",
	Doc: "every obs phase StartPhase must be paired with an End reachable on " +
		"all paths (defer or exhaustive returns)",
	Run: runSpanPair,
}

// spanState is the tracker's path state for one span binding.
type spanState int

const (
	spanOpen spanState = iota // started, not yet ended on this path
	spanEnded
	spanTerminated // path left the function (return/panic)
)

func runSpanPair(pass *analysis.Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body != nil {
				checkSpanBody(pass, body)
			}
			return true
		})
	}
}

// checkSpanBody scans every statement list in one function body for
// StartPhase bindings and runs the tracker over each binding's
// remainder. Nested function literals are handled by their own
// runSpanPair visit, so the scan does not descend into them.
func checkSpanBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var scanList func(stmts []ast.Stmt)
	var scan func(n ast.Node)

	scanList = func(stmts []ast.Stmt) {
		for i, s := range stmts {
			if as, ok := s.(*ast.AssignStmt); ok && as.Tok == token.DEFINE &&
				len(as.Lhs) == 1 && len(as.Rhs) == 1 && isStartPhaseCall(pass, as.Rhs[0]) {
				id, ok := as.Lhs[0].(*ast.Ident)
				if !ok || id.Name == "_" {
					pass.Reportf(as.Pos(), "StartPhase result discarded; the span can never be ended")
					continue
				}
				obj := pass.Pkg.Info.Defs[id]
				if obj == nil {
					continue
				}
				tr := &spanTracker{pass: pass, span: obj}
				st := tr.seq(stmts[i+1:], spanOpen)
				if st == spanOpen && !tr.deferred {
					pass.Reportf(as.Pos(),
						"span %s started here is not ended on the fall-through path; add defer %s.End() or an End before leaving the block",
						id.Name, id.Name)
				}
			}
			scan(s)
		}
	}
	scan = func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // visited independently
			case *ast.BlockStmt:
				scanList(m.List)
				return false
			case *ast.CaseClause:
				scanList(m.Body)
				return false
			case *ast.CommClause:
				scanList(m.Body)
				return false
			case *ast.ExprStmt:
				if isStartPhaseCall(pass, m.X) {
					pass.Reportf(m.Pos(), "StartPhase result discarded; the span can never be ended")
				}
			}
			return true
		})
	}

	// Bare StartPhase expression statements and bindings at any depth.
	scanList(body.List)
}

// spanTracker walks the statements after one StartPhase binding and
// reports paths that leave the function with the span still open.
type spanTracker struct {
	pass     *analysis.Pass
	span     types.Object // the binding's object
	deferred bool         // a defer sp.End() covers everything
}

// seq folds the tracker over a statement sequence.
func (tr *spanTracker) seq(stmts []ast.Stmt, st spanState) spanState {
	for _, s := range stmts {
		st = tr.stmt(s, st)
		if st == spanTerminated || tr.deferred {
			return st
		}
	}
	return st
}

func (tr *spanTracker) stmt(s ast.Stmt, st spanState) spanState {
	switch s := s.(type) {
	case *ast.DeferStmt:
		if tr.endsSpan(s.Call) || deferredLitEnds(tr, s.Call) {
			tr.deferred = true
			return spanEnded
		}
		return tr.scanUse(s, st)
	case *ast.ReturnStmt:
		st = tr.scanUse(s, st) // return f(sp) transfers ownership
		if st == spanOpen {
			tr.pass.Reportf(s.Pos(),
				"return with phase span still open; call End on this path or defer it at the start")
		}
		return spanTerminated
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if tr.endsSpan(call) {
				return spanEnded
			}
			if isPanicCall(tr.pass, call) {
				return spanTerminated
			}
		}
		return tr.scanUse(s, st)
	case *ast.IfStmt:
		thenSt := tr.seq(s.Body.List, st)
		elseSt := st
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseSt = tr.seq(e.List, st)
		case *ast.IfStmt:
			elseSt = tr.stmt(e, st)
		}
		return mergeSpanStates(thenSt, elseSt)
	case *ast.BlockStmt:
		return tr.seq(s.List, st)
	case *ast.ForStmt:
		return tr.loopBody(s.Body, st)
	case *ast.RangeStmt:
		return tr.loopBody(s.Body, st)
	case *ast.SwitchStmt:
		return tr.clauses(s.Body, st, true)
	case *ast.TypeSwitchStmt:
		return tr.clauses(s.Body, st, true)
	case *ast.SelectStmt:
		return tr.clauses(s.Body, st, false)
	case *ast.LabeledStmt:
		return tr.stmt(s.Stmt, st)
	default:
		return tr.scanUse(s, st)
	}
}

// loopBody analyzes a loop body: returns inside the loop with the span
// open are flagged by the inner walk; an End inside the body counts
// optimistically for the post-loop state (zero-iteration leaks are
// beyond this analyzer).
func (tr *spanTracker) loopBody(body *ast.BlockStmt, st spanState) spanState {
	bodySt := tr.seq(body.List, st)
	if st == spanOpen && bodySt == spanEnded {
		return spanEnded
	}
	return st
}

// clauses merges the branches of a switch/select body. For switches,
// a missing default keeps the incoming state as a possible skip path;
// a select always executes some clause.
func (tr *spanTracker) clauses(body *ast.BlockStmt, st spanState, implicitSkip bool) spanState {
	merged := spanTerminated
	sawDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			stmts = c.Body
			if c.List == nil {
				sawDefault = true
			}
		case *ast.CommClause:
			stmts = c.Body
			if c.Comm == nil {
				sawDefault = true
			}
		}
		merged = mergeSpanStates(merged, tr.seq(stmts, st))
	}
	if implicitSkip && !sawDefault {
		merged = mergeSpanStates(merged, st)
	}
	if len(body.List) == 0 {
		return st
	}
	return merged
}

// mergeSpanStates joins two path states: terminated paths drop out;
// any surviving open path keeps the span open.
func mergeSpanStates(a, b spanState) spanState {
	if a == spanTerminated {
		return b
	}
	if b == spanTerminated {
		return a
	}
	if a == spanOpen || b == spanOpen {
		return spanOpen
	}
	return spanEnded
}

// scanUse applies the escape rule to an arbitrary statement: any use
// of the span other than as the receiver of a Span method transfers
// ownership (stored, passed, captured), which ends local tracking. An
// embedded sp.End() (e.g. in an assignment's RHS) also counts.
func (tr *spanTracker) scanUse(n ast.Node, st spanState) spanState {
	if st != spanOpen {
		return st
	}
	out := st
	ast.Inspect(n, func(m ast.Node) bool {
		if out != spanOpen {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && tr.endsSpan(call) {
			out = spanEnded
			return false
		}
		if sel, ok := m.(*ast.SelectorExpr); ok && tr.isSpanIdent(sel.X) && isSpanMethod(tr.pass, sel.Sel) {
			// Receiver of a Span method: neutral; skip the receiver
			// ident so the escape rule below does not see it.
			return false
		}
		if id, ok := m.(*ast.Ident); ok && tr.isSpanObj(id) {
			out = spanEnded // escape: ownership transferred
			return false
		}
		return true
	})
	return out
}

// endsSpan reports whether call is sp.End() on the tracked span.
func (tr *spanTracker) endsSpan(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" || !tr.isSpanIdent(sel.X) {
		return false
	}
	return isSpanMethod(tr.pass, sel.Sel)
}

// deferredLitEnds reports whether a deferred closure body ends the
// span (defer func() { ...; sp.End() }()).
func deferredLitEnds(tr *spanTracker, call *ast.CallExpr) bool {
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && tr.endsSpan(c) {
			found = true
		}
		return !found
	})
	return found
}

// isSpanIdent reports whether e is an identifier bound to the tracked
// span.
func (tr *spanTracker) isSpanIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && tr.isSpanObj(id)
}

func (tr *spanTracker) isSpanObj(id *ast.Ident) bool {
	return tr.pass.ObjectOf(id) == tr.span
}

// isStartPhaseCall reports whether e calls
// (*obs.Recorder).StartPhase.
func isStartPhaseCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "StartPhase" {
		return false
	}
	obj := pass.ObjectOf(sel.Sel)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == obsPkgPath
}

// isSpanMethod reports whether the selector resolves to a method of
// obs.Span (End, SetInt, SetFloat, SetStr, Duration, …).
func isSpanMethod(pass *analysis.Pass, sel *ast.Ident) bool {
	obj := pass.ObjectOf(sel)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == obsPkgPath
}

// isPanicCall reports whether call is the builtin panic.
func isPanicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "panic"
}
