package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PooledHandle guards the pooled-event tenancy protocol inside package sim:
// once a *event goes back to the pool via eventQueue.release, the struct can
// be handed straight out to the next scheduling call, so any further use of
// the released pointer within the function reads (or worse, writes) someone
// else's tenancy. The engine's own Step carefully copies the payload out
// before releasing; this analyzer makes that discipline mechanical.
//
// The dataflow is deliberately simple and intraprocedural: a call
// q.release(ev) kills ev for the rest of its block (and for the enclosing
// blocks when the branch falls through — a branch that ends in
// return/continue/break/panic keeps its kill to itself, which is exactly the
// release-and-bail shape Step uses). Reassigning ev revives it. Nothing
// outside the queue may retain an event across functions; genuinely safe
// uses carry //lint:pooledhandle <reason>.
var PooledHandle = &Analyzer{
	Name: "pooledhandle",
	Doc:  "flags use of a pooled sim event after its release back to the pool",
	Run:  runPooledHandle,
}

func runPooledHandle(pass *Pass) error {
	if !isSimPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		walkFuncs(f, func(fn ast.Node, body *ast.BlockStmt) {
			ph := &pooledState{pass: pass, killed: make(map[*types.Var]token.Pos)}
			ph.block(body.List)
		})
	}
	return nil
}

type pooledState struct {
	pass   *Pass
	killed map[*types.Var]token.Pos // released event var -> release position
}

func (ph *pooledState) clone() *pooledState {
	c := &pooledState{pass: ph.pass, killed: make(map[*types.Var]token.Pos, len(ph.killed))}
	for k, v := range ph.killed { //lint:mapiter analysis-internal state; diagnostics are position-sorted before output
		c.killed[k] = v
	}
	return c
}

// merge adopts kills from a branch that falls through into this state.
func (ph *pooledState) merge(branch *pooledState) {
	for k, v := range branch.killed { //lint:mapiter analysis-internal state; diagnostics are position-sorted before output
		if _, ok := ph.killed[k]; !ok {
			ph.killed[k] = v
		}
	}
}

// block processes a statement list sequentially.
func (ph *pooledState) block(stmts []ast.Stmt) {
	for _, stmt := range stmts {
		ph.stmt(stmt)
	}
}

func (ph *pooledState) stmt(stmt ast.Stmt) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		ph.block(s.List)
	case *ast.LabeledStmt:
		ph.stmt(s.Stmt)
	case *ast.IfStmt:
		if s.Init != nil {
			ph.stmt(s.Init)
		}
		ph.checkUses(s.Cond)
		// Then and else run on independent clones of the pre-if state; each
		// branch's kills flow past the if only when that branch can fall
		// through.
		thenBranch := ph.clone()
		thenBranch.block(s.Body.List)
		var elseBranch *pooledState
		elseFalls := false
		if s.Else != nil {
			elseBranch = ph.clone()
			elseBranch.stmt(s.Else)
			if blk, ok := s.Else.(*ast.BlockStmt); ok {
				elseFalls = !terminates(blk.List)
			} else {
				elseFalls = true // else-if chain: assume fall-through
			}
		}
		if !terminates(s.Body.List) {
			ph.merge(thenBranch)
		}
		if elseFalls {
			ph.merge(elseBranch)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ph.stmt(s.Init)
		}
		if s.Cond != nil {
			ph.checkUses(s.Cond)
		}
		ph.branch(s.Body)
		if s.Post != nil {
			ph.stmt(s.Post)
		}
	case *ast.RangeStmt:
		ph.checkUses(s.X)
		ph.branch(s.Body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			ph.stmt(s.Init)
		}
		if s.Tag != nil {
			ph.checkUses(s.Tag)
		}
		ph.caseClauses(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ph.stmt(s.Init)
		}
		ph.caseClauses(s.Body)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				branch := ph.clone()
				if cc.Comm != nil {
					branch.stmt(cc.Comm)
				}
				branch.block(cc.Body)
				if !terminates(cc.Body) {
					ph.merge(branch)
				}
			}
		}
	case *ast.AssignStmt:
		// The direct assignment targets are not reads: `ev = q.alloc()` is
		// the revival, not a use-after-release. Everything else on the
		// statement — the right-hand sides, and target expressions that read
		// through the variable (ev.f = x, m[ev] = x) — is.
		for _, rhs := range s.Rhs {
			ph.checkUses(rhs)
		}
		for _, lhs := range s.Lhs {
			if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
				ph.checkUses(lhs)
			}
		}
		ph.applyKills(s)
		ph.applyRevives(s)
	default:
		// Leaf statement: check uses of already-released events, apply new
		// kills, then account for reassignments.
		ph.checkUses(stmt)
		ph.applyKills(stmt)
		ph.applyRevives(stmt)
	}
}

// branch runs a conditional/loop body on a cloned state and merges its kills
// back when the body can fall through to the code after it.
func (ph *pooledState) branch(body *ast.BlockStmt) {
	b := ph.clone()
	b.block(body.List)
	if !terminates(body.List) {
		ph.merge(b)
	}
}

func (ph *pooledState) caseClauses(body *ast.BlockStmt) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				ph.checkUses(e)
			}
			branch := ph.clone()
			branch.block(cc.Body)
			if !terminates(cc.Body) {
				ph.merge(branch)
			}
		}
	}
}

// terminates reports whether a statement list always transfers control away
// (return, branch, panic) at its end.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}

// checkUses reports any reference to a killed event variable inside n,
// skipping nested function literals (their execution time is unknowable
// here).
func (ph *pooledState) checkUses(n ast.Node) {
	if n == nil || len(ph.killed) == 0 {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		id, ok := c.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := ph.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if pos, dead := ph.killed[v]; dead && id.Pos() > pos {
			ph.pass.Reportf(id.Pos(), "pooled event %s used after release; the struct may already belong to the next tenancy — copy fields out first", v.Name())
		}
		return true
	})
}

// applyKills marks the argument of any eventQueue release call in n as dead.
func (ph *pooledState) applyKills(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "release" {
			return true
		}
		fn, ok := ph.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !simNamed(sig.Recv().Type(), "eventQueue") {
			return true
		}
		id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := ph.pass.TypesInfo.Uses[id].(*types.Var); ok && simNamed(v.Type(), "event") {
			ph.killed[v] = call.End()
		}
		return true
	})
}

// applyRevives clears kills for variables reassigned by n.
func (ph *pooledState) applyRevives(n ast.Node) {
	assign, ok := n.(*ast.AssignStmt)
	if !ok {
		return
	}
	for _, lhs := range assign.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		if v, ok := ph.pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
			delete(ph.killed, v)
		}
	}
}
