package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// DefaultMustCheckCalls is the production must-check set: calls whose error
// results guard the durability and reclamation invariants of the runtime —
// GCS table writes and flushes, chain commits, codec encode/decode, object
// store puts and spill I/O, and the scheduler's task-failure path. Dropping
// one of these errors turns a recoverable fault into silent state divergence
// (a location entry that never dies, a task whose consumers hang, an object
// that decodes from garbage).
var DefaultMustCheckCalls = []string{
	"ray/internal/gcs.Store.*",
	"ray/internal/chain.Chain.Put",
	"ray/internal/chain.Chain.PutBatch",
	"ray/internal/chain.Chain.WriteBatch",
	"ray/internal/codec.Encode",
	"ray/internal/codec.Decode",
	"ray/internal/objectstore.Store.*",
	"ray/internal/objectmanager.Manager.PutOwned",
	"ray/internal/objectmanager.Manager.Pull",
	"ray/internal/scheduler.TaskRunner.Fail",
}

// ErrDrop flags ignored error results from the must-check set: assignments to
// the blank identifier (`_ = store.Sync(ctx)`), blank positions in
// multi-value assignments, bare call statements, and deferred calls whose
// error result nobody can observe.
type ErrDrop struct {
	// MustCheck is the set of funcFullName patterns whose error results must
	// be consumed.
	MustCheck []string
}

// NewErrDrop returns the analyzer; nil mustCheck selects
// DefaultMustCheckCalls.
func NewErrDrop(mustCheck []string) *ErrDrop {
	if mustCheck == nil {
		mustCheck = DefaultMustCheckCalls
	}
	return &ErrDrop{MustCheck: mustCheck}
}

func (a *ErrDrop) Name() string { return "errdrop" }

func (a *ErrDrop) Doc() string {
	return "error results from GCS writes/flushes, chain commits, codec calls, store commits, and spill I/O must not be dropped"
}

func (a *ErrDrop) Analyze(prog *Program) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, form string, full string) {
		diags = append(diags, Diagnostic{
			Pos:     prog.Position(pos),
			Check:   a.Name(),
			Message: fmt.Sprintf("%s drops the error from %s, which is on a must-check path", form, full),
		})
	}
	for _, pkg := range prog.TargetPackages() {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					a.checkAssign(pkg, n, report)
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						if full, ok := a.droppedCall(pkg, call); ok {
							report(call.Pos(), "bare call statement", full)
						}
					}
				case *ast.DeferStmt:
					if full, ok := a.droppedCall(pkg, n.Call); ok {
						report(n.Call.Pos(), "deferred call", full)
					}
				case *ast.GoStmt:
					if full, ok := a.droppedCall(pkg, n.Call); ok {
						report(n.Call.Pos(), "go statement", full)
					}
				}
				return true
			})
		}
	}
	SortDiagnostics(diags)
	return diags
}

// droppedCall reports whether call is a must-check call with an error result
// that the statement form discards entirely.
func (a *ErrDrop) droppedCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	callee := calleeOf(pkg.Info, call)
	if callee == nil {
		return "", false
	}
	full := funcFullName(callee)
	if !matchAny(full, a.MustCheck) {
		return "", false
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if len(errorResults(sig)) == 0 {
		return "", false
	}
	return full, true
}

// checkAssign flags must-check calls whose error results land in blank
// identifiers: `_ = f()` and `v, _ := g()` where the blanked result is the
// error.
func (a *ErrDrop) checkAssign(pkg *Package, st *ast.AssignStmt, report func(token.Pos, string, string)) {
	// Single call on the RHS, possibly multi-valued.
	if len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			callee := calleeOf(pkg.Info, call)
			if callee == nil {
				return
			}
			full := funcFullName(callee)
			if !matchAny(full, a.MustCheck) {
				return
			}
			sig, ok := callee.Type().(*types.Signature)
			if !ok {
				return
			}
			for _, idx := range errorResults(sig) {
				if idx < len(st.Lhs) && isBlank(st.Lhs[idx]) {
					report(st.Pos(), "assignment to _", full)
					return
				}
			}
			return
		}
	}
	// Parallel assignment: each RHS is a single-valued expression.
	for i, rhs := range st.Rhs {
		if i >= len(st.Lhs) || !isBlank(st.Lhs[i]) {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if full, ok := a.droppedCall(pkg, call); ok {
			report(st.Pos(), "assignment to _", full)
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
