package main

// GORO01 — goroutine hygiene in internal/. A bare `go` statement is an
// unsupervised goroutine: nothing joins it, nothing observes its panic,
// and under churn it leaks. In the scoped packages every `go` statement
// must be visibly supervised within its declaring function:
//
//   - a sync.WaitGroup is used in the same function (Add/Done/Wait) — the
//     journal syncer's `wg.Add(1); go j.syncLoop()` shape; or
//   - the function receives from a channel *after* the go statement
//     (<-done, range over a channel, or a select receive) — the
//     done-channel join shape; or
//   - the launch carries `//lint:ignore GORO01 <reason>` with a real
//     reason (LINT03 rejects throwaway ones).
//
// core.SolveComponents, the one place an EXPAND's solves fan out, takes
// the WaitGroup shape: its goroutines are joined before it returns.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkGoro01 inspects one function declaration for unsupervised go
// statements.
func (r *ruleRunner) checkGoro01(decl *ast.FuncDecl) {
	if decl.Body == nil {
		return
	}
	var goStmts []*ast.GoStmt
	usesWaitGroup := false
	var recvEnds []token.Pos // End() of each channel-receive site
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			goStmts = append(goStmts, n)
		case *ast.CallExpr:
			if isWaitGroupMethod(r, n) {
				usesWaitGroup = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				recvEnds = append(recvEnds, n.End())
			}
		case *ast.RangeStmt:
			if t := r.pkg.Info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					recvEnds = append(recvEnds, n.X.End())
				}
			}
		}
		return true
	})
	if len(goStmts) == 0 || usesWaitGroup {
		return
	}
	for _, g := range goStmts {
		joined := false
		for _, p := range recvEnds {
			// A receive inside the launched literal itself is the
			// goroutine waiting, not the function joining it.
			if p >= g.End() {
				joined = true
				break
			}
		}
		if !joined {
			r.report(g.Pos(), "GORO01",
				"bare go statement: supervise it with a WaitGroup or a done-channel receive in %s, or suppress with a reasoned //lint:ignore", decl.Name.Name)
		}
	}
}

// isWaitGroupMethod reports whether the call is sync.WaitGroup.Add/Done/
// Wait.
func isWaitGroupMethod(r *ruleRunner, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return false
	}
	fn, _ := r.pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
