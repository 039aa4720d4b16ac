package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DefaultCtxFlowPackages are the dispatch-path packages where context
// hygiene is enforced: a job kill or a cluster shutdown cancels work by
// cancelling its context, which reaches a wait only through these layers.
var DefaultCtxFlowPackages = []string{
	"ray/internal/cluster",
	"ray/internal/scheduler",
	"ray/internal/objectmanager",
	"ray/internal/gcs",
	"ray/internal/telemetry",
}

// DefaultCtxFlowExempt are exported method names allowed to block without a
// context: lifecycle teardown, whose contract (io.Closer and friends) is
// ctx-less by convention.
var DefaultCtxFlowExempt = []string{"Close", "Stop", "Shutdown"}

// CtxFlow enforces context hygiene on the configured packages: an exported
// function or method that can block — a channel operation, a select without
// default, or a call into the blocking set — must accept a context.Context
// so callers can cancel it; and library code must not mint fresh root
// contexts with context.Background()/context.TODO(), which silently detach
// work from the caller's cancellation and deadline.
type CtxFlow struct {
	// Packages are the import paths the analyzer enforces (exact match).
	Packages []string
	// BlockingCalls classifies callees as blocking (funcFullName patterns).
	BlockingCalls []string
	// ExemptNames are exported method names allowed to block without a ctx.
	ExemptNames []string
}

// NewCtxFlow returns the analyzer; nil arguments select the defaults.
func NewCtxFlow(packages, blockingCalls, exemptNames []string) *CtxFlow {
	if packages == nil {
		packages = DefaultCtxFlowPackages
	}
	if blockingCalls == nil {
		blockingCalls = DefaultBlockingCalls
	}
	if exemptNames == nil {
		exemptNames = DefaultCtxFlowExempt
	}
	return &CtxFlow{Packages: packages, BlockingCalls: blockingCalls, ExemptNames: exemptNames}
}

func (a *CtxFlow) Name() string { return "ctxflow" }

func (a *CtxFlow) Doc() string {
	return "blocking exported APIs in the dispatch-path packages must accept a context.Context; no context.Background()/TODO() in library code"
}

func (a *CtxFlow) Analyze(prog *Program) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     prog.Position(pos),
			Check:   a.Name(),
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, pkg := range prog.TargetPackages() {
		if !contains(a.Packages, pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			// Root contexts: library code inherits its context from the
			// caller; a fresh Background()/TODO() detaches the work.
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				full := funcFullName(calleeOf(pkg.Info, call))
				if full == "context.Background" || full == "context.TODO" {
					report(call.Pos(), "%s in library code: accept and thread the caller's context instead", full)
				}
				return true
			})
		}
		for _, fb := range functionBodies(pkg) {
			fd := fb.decl
			if fd == nil || !fd.Name.IsExported() || contains(a.ExemptNames, fd.Name.Name) {
				continue
			}
			hasCtx, discarded := ctxParam(pkg, fd)
			what := a.firstBlocking(pkg, fd)
			if what == "" {
				continue
			}
			if !hasCtx {
				report(fd.Name.Pos(), "exported %s blocks (%s) but accepts no context.Context; callers cannot cancel it", fb.name, what)
			} else if discarded {
				report(fd.Name.Pos(), "exported %s blocks (%s) but discards its context.Context parameter (_); thread it through", fb.name, what)
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// ctxParam reports whether the declaration accepts a context.Context, and
// whether every such parameter is the blank identifier.
func ctxParam(pkg *Package, fd *ast.FuncDecl) (has, discarded bool) {
	discarded = true
	for _, f := range fd.Type.Params.List {
		tv, ok := pkg.Info.Types[f.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		has = true
		if len(f.Names) == 0 {
			continue
		}
		for _, n := range f.Names {
			if n.Name != "_" {
				discarded = false
			}
		}
	}
	if !has {
		return false, false
	}
	return true, discarded
}

func isContextType(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// firstBlocking returns a description of the first potentially blocking
// operation in the function body proper (function literals run in their own
// goroutine context and are excluded), or "".
func (a *CtxFlow) firstBlocking(pkg *Package, fd *ast.FuncDecl) string {
	var found string
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			found = "channel send"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = "channel receive"
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				found = "select without default"
				return false
			}
			// A select with a default never blocks, and its comm clauses'
			// channel operations block only as part of the select — walk the
			// clause bodies but not the comm expressions.
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, stmt := range cc.Body {
						ast.Inspect(stmt, visit)
					}
				}
			}
			return false
		case *ast.CallExpr:
			callee := calleeOf(pkg.Info, n)
			if callee == nil {
				return true
			}
			if full := funcFullName(callee); matchAny(full, a.BlockingCalls) {
				found = "call to " + full
			}
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
	if found != "" && strings.HasPrefix(found, "call to sync.Cond") {
		// Cond.Wait's contract is lock-based, not context-based.
		return ""
	}
	return found
}
