// Package lint is raylint's analysis framework: a package loader built on
// go/parser and go/types (stdlib only — the module is dependency-free and
// must stay so), a diagnostic model with stable check names, and the
// //lint:ignore suppression mechanism.
//
// The framework exists because the runtime's correctness rests on invariants
// the Go compiler cannot see and the tests do not reach: lock discipline
// across a dozen mutex-guarded subsystems, contexts that must reach every
// wait, and errors on the GCS flush/reclaim/spill paths that must never be
// dropped. Each analyzer in this package turns one of those
// conventions into a checked invariant, and is kept only while it catches a
// bug that neither the tests nor the race detector catch (README, "Static
// analysis").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding. Check is the stable machine-readable
// name used by suppression directives; Message is the human explanation.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the canonical "file:line:col: check: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one whole-program check.
type Analyzer interface {
	// Name is the stable check name carried by diagnostics and referenced by
	// //lint:ignore directives.
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	// Analyze inspects the loaded program and reports violations.
	Analyze(prog *Program) []Diagnostic
}

// DefaultAnalyzers returns the five project analyzers with their production
// configuration (the blocking sets, must-check sets and ctxflow package set
// tuned to this repository).
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewMutexHold(nil),
		NewLockOrder(),
		NewErrDrop(nil),
		NewGuardedBy(),
		NewCtxFlow(nil, nil, nil),
	}
}

// SortDiagnostics orders diagnostics by position then check name, giving every
// run a deterministic report order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path (e.g. "ray/internal/gcs").
	Path string
	// Dir is the package's directory on disk.
	Dir string
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression/object resolution maps.
	Info *types.Info
	// Target marks packages named by the load patterns (analyzers only report
	// on target packages; dependency packages are loaded for type information
	// and the cross-package lock graph).
	Target bool
}

// Program is the full set of loaded packages sharing one FileSet.
type Program struct {
	Fset *token.FileSet
	// Packages holds every loaded module package in deterministic path order.
	Packages []*Package
}

// TargetPackages returns the packages analyzers should report on.
func (p *Program) TargetPackages() []*Package {
	var out []*Package
	for _, pkg := range p.Packages {
		if pkg.Target {
			out = append(out, pkg)
		}
	}
	return out
}

// Position resolves a token.Pos against the program's FileSet.
func (p *Program) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// funcBody is one analyzable function body: a FuncDecl or a FuncLit. FuncLits
// are scanned as independent functions (a goroutine body starts with no locks
// held), so Decl is nil for them.
type funcBody struct {
	pkg  *Package
	decl *ast.FuncDecl // nil for function literals
	fn   *types.Func   // nil for function literals
	body *ast.BlockStmt
	// name describes the function for diagnostics ("(*Store).Put", "func
	// literal in (*Store).Put").
	name string
}

// functionBodies enumerates every function body in the package: declared
// functions and methods plus every function literal (at any nesting depth),
// each exactly once. Literals are separate entries because they execute in
// their own dynamic context — a goroutine body starts with no locks held.
func functionBodies(pkg *Package) []funcBody {
	var out []funcBody
	var addLits func(root ast.Node, parent string)
	addLits = func(root ast.Node, parent string) {
		ast.Inspect(root, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			name := "func literal in " + parent
			out = append(out, funcBody{pkg: pkg, body: lit.Body, name: name})
			addLits(lit.Body, parent)
			return false
		})
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				// Package-level `var f = func() {...}` literals.
				addLits(decl, "package-level declaration")
				continue
			}
			if fd.Body == nil {
				continue
			}
			var fn *types.Func
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				fn = obj
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				name = recvString(fd.Recv.List[0].Type) + "." + name
			}
			out = append(out, funcBody{pkg: pkg, decl: fd, fn: fn, body: fd.Body, name: name})
			addLits(fd.Body, name)
		}
	}
	return out
}

func recvString(t ast.Expr) string {
	switch x := t.(type) {
	case *ast.StarExpr:
		return "(*" + recvString(x.X) + ")"
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return recvString(x.X)
	case *ast.IndexListExpr:
		return recvString(x.X)
	default:
		return "?"
	}
}
