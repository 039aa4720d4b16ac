package lint

// The //guard: annotation language makes the codebase's lock-to-field mapping
// explicit and machine-checked:
//
//	//guard:by mu       every access requires mu held in write mode
//	//guard:by mu.R     reads may hold mu.RLock(); writes need mu.Lock()
//	//guard:atomic      every access goes through sync/atomic (or the field
//	                    is an atomic.X value accessed via its methods)
//	//guard:init        set once during construction, immutable afterwards;
//	                    reads need no lock, later writes are violations
//
// Field directives live on the struct field (trailing comment or doc
// comment). A function-level directive declares a lock the CALLER must hold:
//
//	//guard:holds mu    the receiver's mu is held on entry (lock-suffixed
//	                    helper methods); callers are checked at every call
//	                    site, and the body is scanned with mu pre-acquired.
//	                    //guard:holds mu.R requires at least the read lock.
//
// The guardedby analyzer checks every access site — reads and writes through
// methods, closures, and goroutines launched from methods — against these
// annotations, reports escapes (address taken, guarded reference returned,
// aliased receivers) rather than silently passing them, and requires every
// mutex-carrying struct in the linted tree to declare what its locks protect.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// guardKind is the protection regime a field directive declares.
type guardKind int

const (
	guardByLock guardKind = iota
	guardAtomic
	guardInit
)

// guardSpec is one parsed field annotation.
type guardSpec struct {
	kind guardKind
	// lock is the sibling mutex field name (guardByLock only).
	lock string
	// readOK marks //guard:by mu.R: the read lock satisfies read accesses.
	readOK bool
	pos    token.Pos
}

func (g *guardSpec) String() string {
	switch g.kind {
	case guardAtomic:
		return "//guard:atomic"
	case guardInit:
		return "//guard:init"
	default:
		if g.readOK {
			return "//guard:by " + g.lock + ".R"
		}
		return "//guard:by " + g.lock
	}
}

// holdSpec is one lock named by a //guard:holds directive.
type holdSpec struct {
	lock string
	// read marks mu.R: the caller may hold just the read lock.
	read bool
}

// mutexStruct records one struct declaring at least one mutex field, for the
// coverage check.
type mutexStruct struct {
	named   *types.Named
	pos     token.Pos
	pkg     *Package
	mutexes []string
	// guardable counts fields that are neither locks nor other sync
	// primitives — the fields an annotation could protect.
	guardable int
}

// guardTable is the whole-program view of //guard: annotations.
type guardTable struct {
	// fields maps a struct field (origin var, so generic instantiations
	// share one entry) to its directive.
	fields map[*types.Var]*guardSpec
	// holds maps functions to their //guard:holds contracts.
	holds map[*types.Func][]holdSpec
	// mutexFields lists the mutex-capable field names per struct (origin).
	mutexFields map[*types.Named][]string
	// annotated counts directive-carrying fields per struct (origin).
	annotated map[*types.Named]int
	// structs lists every mutex-carrying struct for the coverage check.
	structs []mutexStruct
	// diags collects malformed-annotation findings (target packages only).
	diags []Diagnostic
}

// buildGuardTable parses every //guard: directive in the program.
func buildGuardTable(prog *Program) *guardTable {
	t := &guardTable{
		fields:      make(map[*types.Var]*guardSpec),
		holds:       make(map[*types.Func][]holdSpec),
		mutexFields: make(map[*types.Named][]string),
		annotated:   make(map[*types.Named]int),
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						t.addStruct(prog, pkg, ts, st)
					}
				case *ast.FuncDecl:
					t.addHolds(prog, pkg, d)
				}
			}
		}
	}
	return t
}

// addStruct records the struct's mutex fields and parses its field
// directives.
func (t *guardTable) addStruct(prog *Program, pkg *Package, ts *ast.TypeSpec, st *ast.StructType) {
	tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	named, ok := types.Unalias(tn.Type()).(*types.Named)
	if !ok {
		return
	}
	styp, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	named = named.Origin()

	// Pass 1: field vars in AST order, mutex inventory.
	vars := make([]*types.Var, 0, styp.NumFields())
	var mutexes []string
	guardable := 0
	for i := 0; i < styp.NumFields(); i++ {
		v := styp.Field(i)
		vars = append(vars, v)
		if isMutexType(v.Type()) {
			mutexes = append(mutexes, v.Name())
		} else if !isSyncType(v.Type()) {
			guardable++
		}
	}
	t.mutexFields[named] = mutexes
	if len(mutexes) > 0 {
		t.structs = append(t.structs, mutexStruct{
			named: named, pos: ts.Pos(), pkg: pkg,
			mutexes: mutexes, guardable: guardable,
		})
	}

	// Pass 2: directives. AST field entries map to consecutive field vars
	// (one per name; one for an embedded field).
	report := func(pos token.Pos, format string, args ...any) {
		if !pkg.Target {
			return
		}
		t.diags = append(t.diags, Diagnostic{
			Pos:     prog.Position(pos),
			Check:   "guardedby",
			Message: fmt.Sprintf(format, args...),
		})
	}
	idx := 0
	for _, f := range st.Fields.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		entryVars := vars[idx : idx+n]
		idx += n
		for _, c := range guardComments(f) {
			spec, err := parseGuardDirective(c.Text, c.Pos())
			if err != "" {
				report(c.Pos(), "%s", err)
				continue
			}
			if spec.kind == guardByLock {
				if !contains(mutexes, spec.lock) {
					report(c.Pos(), "//guard:by %s: %s.%s is not a sync.Mutex or sync.RWMutex field of %s",
						spec.lock, named.Obj().Name(), spec.lock, named.Obj().Name())
					continue
				}
				if spec.readOK && !isRWMutexField(styp, spec.lock) {
					report(c.Pos(), "//guard:by %s.R: %s is a sync.Mutex; the .R (read-lock-sufficient) form needs a sync.RWMutex", spec.lock, spec.lock)
					continue
				}
			}
			for _, v := range entryVars {
				if isMutexType(v.Type()) {
					report(c.Pos(), "mutex field %s is a guard, not a guarded field; drop the //guard: directive", v.Name())
					continue
				}
				t.fields[v] = spec
				t.annotated[named]++
			}
		}
	}
}

// addHolds parses a function's //guard:holds directive and validates it
// against the receiver type.
func (t *guardTable) addHolds(prog *Program, pkg *Package, fd *ast.FuncDecl) {
	if fd.Doc == nil {
		return
	}
	report := func(pos token.Pos, format string, args ...any) {
		if !pkg.Target {
			return
		}
		t.diags = append(t.diags, Diagnostic{
			Pos:     prog.Position(pos),
			Check:   "guardedby",
			Message: fmt.Sprintf(format, args...),
		})
	}
	var specs []holdSpec
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//guard:holds")
		if !ok {
			continue
		}
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			report(c.Pos(), "//guard:holds on a non-method: the directive names a lock field of the receiver")
			continue
		}
		named := recvNamedOf(pkg, fd)
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			report(c.Pos(), "malformed directive: want //guard:holds <lockfield>[.R] ...")
			continue
		}
		for _, fname := range fields {
			fname = strings.Trim(fname, ",")
			if fname == "" {
				continue
			}
			lock, read := strings.CutSuffix(fname, ".R")
			if named != nil && !contains(t.mutexFields[named], lock) {
				report(c.Pos(), "//guard:holds %s: %s is not a mutex field of %s", fname, lock, named.Obj().Name())
				continue
			}
			specs = append(specs, holdSpec{lock: lock, read: read})
		}
	}
	if len(specs) == 0 {
		return
	}
	if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		t.holds[fn] = specs
	}
}

func recvNamedOf(pkg *Package, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := pkg.Info.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	named := namedOf(tv.Type)
	if named == nil {
		return nil
	}
	return named.Origin()
}

// guardComments returns the //guard: comments attached to a struct field
// (doc comment above or trailing line comment).
func guardComments(f *ast.Field) []*ast.Comment {
	var out []*ast.Comment
	for _, group := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if group == nil {
			continue
		}
		for _, c := range group.List {
			if strings.HasPrefix(c.Text, "//guard:") {
				out = append(out, c)
			}
		}
	}
	return out
}

// parseGuardDirective parses one //guard: comment; err is a human-readable
// malformation message ("" on success).
func parseGuardDirective(text string, pos token.Pos) (*guardSpec, string) {
	rest := strings.TrimPrefix(text, "//guard:")
	// A trailing "—" or "--" starts free-form prose sharing the line with the
	// directive ("//guard:by mu — front = most recently used").
	for _, sep := range []string{"—", "--"} {
		if i := strings.Index(rest, sep); i >= 0 {
			rest = rest[:i]
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, "malformed directive: want //guard:by <lock>, //guard:atomic, or //guard:init"
	}
	switch fields[0] {
	case "by":
		if len(fields) != 2 {
			return nil, "malformed directive: want //guard:by <lockfield> or //guard:by <lockfield>.R"
		}
		lock, read := strings.CutSuffix(fields[1], ".R")
		return &guardSpec{kind: guardByLock, lock: lock, readOK: read, pos: pos}, ""
	case "atomic":
		return &guardSpec{kind: guardAtomic, pos: pos}, ""
	case "init":
		return &guardSpec{kind: guardInit, pos: pos}, ""
	case "holds":
		// Parsed at function level; on a field it is a mistake.
		return nil, "//guard:holds belongs on a method declaration, not a struct field"
	default:
		return nil, fmt.Sprintf("unknown directive //guard:%s (want by/atomic/init/holds)", fields[0])
	}
}

// seedHolds builds the initial lock state for a function body from its
// //guard:holds directive: the named receiver locks are modeled as held on
// entry. Used by every scanner-based analyzer so lock-suffixed helpers are
// scanned under their declared contract.
func seedHolds(pkg *Package, fb funcBody) lockState {
	state := lockState{}
	if fb.decl == nil || fb.decl.Doc == nil || fb.decl.Recv == nil || len(fb.decl.Recv.List) == 0 {
		return state
	}
	names := fb.decl.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return state
	}
	recvName := names[0].Name
	var ownerID string
	if named := recvNamedOf(pkg, fb.decl); named != nil && named.Obj().Pkg() != nil {
		ownerID = named.Obj().Pkg().Path() + "." + named.Obj().Name()
	}
	for _, c := range fb.decl.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//guard:holds")
		if !ok {
			continue
		}
		for _, f := range strings.Fields(rest) {
			f = strings.Trim(f, ",")
			if f == "" {
				continue
			}
			lock, read := strings.CutSuffix(f, ".R")
			lk := heldLock{key: recvName + "." + lock, kind: lockWrite, pos: c.Pos()}
			if read {
				lk.kind = lockRead
			}
			if ownerID != "" {
				lk.global = ownerID + "." + lock
			}
			state[lk.key] = lk
		}
	}
	return state
}

// GuardedBy enforces the //guard: annotation language: every access to an
// annotated field must hold the declared lock (write mode for writes; read
// mode suffices for reads only under the .R form), //guard:atomic fields are
// only touched through sync/atomic, //guard:init fields are never written
// after construction, and aliases that escape the lock's scope (address
// taken, guarded reference returned) are reported. Structs that declare a
// mutex but annotate nothing are reported too — an unannotated lock protects
// nothing checkable.
type GuardedBy struct{}

// NewGuardedBy returns the analyzer.
func NewGuardedBy() *GuardedBy { return &GuardedBy{} }

func (a *GuardedBy) Name() string { return "guardedby" }

func (a *GuardedBy) Doc() string {
	return "every access to a //guard:-annotated field must hold its declared lock"
}

func (a *GuardedBy) Analyze(prog *Program) []Diagnostic {
	table := buildGuardTable(prog)
	diags := append([]Diagnostic{}, table.diags...)

	// Coverage: a mutex-carrying struct with guardable fields must declare
	// what the lock protects.
	for _, ms := range table.structs {
		if !ms.pkg.Target || ms.guardable == 0 || table.annotated[ms.named] > 0 {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:   prog.Position(ms.pos),
			Check: a.Name(),
			Message: fmt.Sprintf("struct %s has mutex field(s) %s but no //guard: annotations; annotate the guarded fields",
				ms.named.Obj().Name(), strings.Join(ms.mutexes, ", ")),
		})
	}

	for _, pkg := range prog.TargetPackages() {
		for _, fb := range functionBodies(pkg) {
			fb := fb
			pkg := pkg
			fresh := freshLocals(pkg, fb)
			report := func(pos token.Pos, format string, args ...any) {
				diags = append(diags, Diagnostic{
					Pos:     prog.Position(pos),
					Check:   a.Name(),
					Message: fmt.Sprintf(format, args...),
				})
			}
			sc := &lockScanner{
				pkg: pkg,
				cb: lockCallbacks{
					access: func(held []heldLock, sel *ast.SelectorExpr, kind accessKind) {
						a.checkAccess(pkg, table, fb, fresh, held, sel, kind, report)
					},
					call: func(held []heldLock, callee *types.Func, call *ast.CallExpr) {
						a.checkCall(pkg, table, fresh, held, callee, call, report)
					},
				},
			}
			sc.scan(fb)
		}
	}
	SortDiagnostics(diags)
	return diags
}

// checkAccess validates one field access against the field's directive.
func (a *GuardedBy) checkAccess(pkg *Package, table *guardTable, fb funcBody, fresh map[types.Object]bool,
	held []heldLock, sel *ast.SelectorExpr, kind accessKind, report func(token.Pos, string, ...any)) {
	selection, ok := pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	spec := table.fields[v.Origin()]
	if spec == nil {
		return
	}
	// Pre-publication: a value built locally in this function (composite
	// literal or new) is not yet shared; its fields need no lock.
	if obj := rootIdentObj(pkg, sel); obj != nil && fresh[obj] {
		return
	}
	base := types.ExprString(ast.Unparen(sel.X))
	field := base + "." + sel.Sel.Name

	switch spec.kind {
	case guardInit:
		if (kind == accessWrite || kind == accessAddr) && !isConstructorLike(fb) {
			report(sel.Sel.Pos(), "%s of //guard:init field %s outside construction: init fields are set once before the value is shared", kind, field)
		}
	case guardAtomic:
		if kind == accessAtomic {
			return
		}
		if isAtomicValueType(v.Type()) {
			// atomic.Int64-style fields are safe through their methods; only
			// overwriting or aliasing the whole value defeats them.
			if kind == accessWrite || kind == accessAddr {
				report(sel.Sel.Pos(), "%s of //guard:atomic field %s: the atomic value must not be overwritten or aliased", kind, field)
			}
			return
		}
		if kind == accessWrite && isConstructorLike(fb) {
			return
		}
		report(sel.Sel.Pos(), "non-atomic %s of //guard:atomic field %s; use sync/atomic", kind, field)
	case guardByLock:
		want := base + "." + spec.lock
		h := findHeld(held, want)
		switch kind {
		case accessAddr:
			report(sel.Sel.Pos(), "address of %s taken: the alias escapes %s's protection (field is %s)", field, spec.lock, spec)
		case accessAtomic:
			report(sel.Sel.Pos(), "sync/atomic access to %s, which is %s, not //guard:atomic", field, spec)
		case accessWrite:
			if h == nil {
				report(sel.Sel.Pos(), "write to %s without %s held (field is %s)", field, want, spec)
			} else if h.kind == lockRead {
				report(sel.Sel.Pos(), "write to %s with only %s.RLock() held; writes require the write lock", field, want)
			}
		case accessReturn:
			if isRefType(v.Type()) {
				report(sel.Sel.Pos(), "%s (guarded by %s) returned: the caller aliases guarded state beyond the lock's scope; return a copy", field, spec.lock)
				return
			}
			a.checkRead(field, base, want, spec, h, sel, report)
		case accessRead:
			a.checkRead(field, base, want, spec, h, sel, report)
		}
	}
}

func (a *GuardedBy) checkRead(field, base, want string, spec *guardSpec, h *heldLock,
	sel *ast.SelectorExpr, report func(token.Pos, string, ...any)) {
	if h == nil {
		report(sel.Sel.Pos(), "read of %s without %s held (field is %s)", field, want, spec)
		return
	}
	if h.kind == lockRead && !spec.readOK {
		report(sel.Sel.Pos(), "read of %s under %s.RLock(), but //guard:by %s requires the write lock (annotate //guard:by %s.R if read-lock reads are safe)",
			field, want, spec.lock, spec.lock)
	}
}

// checkCall enforces the caller side of //guard:holds: invoking an annotated
// helper requires the declared receiver locks at the call site.
func (a *GuardedBy) checkCall(pkg *Package, table *guardTable, fresh map[types.Object]bool,
	held []heldLock, callee *types.Func, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	specs := table.holds[callee.Origin()]
	if len(specs) == 0 {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if obj := rootIdentObj(pkg, sel); obj != nil && fresh[obj] {
		return
	}
	base := types.ExprString(ast.Unparen(sel.X))
	for _, hs := range specs {
		want := base + "." + hs.lock
		h := findHeld(held, want)
		if h == nil {
			report(call.Lparen, "call to %s requires %s held (//guard:holds %s)", callee.Name(), want, hs.lock)
		} else if h.kind == lockRead && !hs.read {
			report(call.Lparen, "call to %s requires %s write-locked (//guard:holds %s), but only the read lock is held", callee.Name(), want, hs.lock)
		}
	}
}

func findHeld(held []heldLock, key string) *heldLock {
	for i := range held {
		if held[i].key == key {
			return &held[i]
		}
	}
	return nil
}

// isConstructorLike reports function bodies allowed to write //guard:init
// (and plain-typed //guard:atomic) fields: constructors and init/reset-style
// setup, identified by name prefix. Pre-publication locals are exempted
// separately via freshLocals.
func isConstructorLike(fb funcBody) bool {
	if fb.decl == nil {
		return false
	}
	name := strings.ToLower(fb.decl.Name.Name)
	for _, prefix := range []string{"new", "make", "init", "open"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// freshLocals finds variables initialized in this body from a composite
// literal or new(): values not yet visible to other goroutines, whose fields
// may be set without the guard. Function literals are their own bodies and
// are not descended into.
func freshLocals(pkg *Package, fb funcBody) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(id *ast.Ident, rhs ast.Expr) {
		if isFreshExpr(rhs) {
			if obj := pkg.Info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(fb.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Lhs {
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					mark(id, n.Rhs[i])
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != len(vs.Values) {
					continue
				}
				for i := range vs.Names {
					mark(vs.Names[i], vs.Values[i])
				}
			}
		}
		return true
	})
	return out
}

func isFreshExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			return id.Name == "new"
		}
	}
	return false
}

// rootIdentObj peels selectors, indexes, derefs, and parens down to the root
// identifier's object ("s" in s.inner.f), or nil when the chain roots in a
// call or literal.
func rootIdentObj(pkg *Package, e ast.Expr) types.Object {
	for {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return pkg.Info.Uses[x]
		default:
			return nil
		}
	}
}

func isMutexType(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// isSyncType reports sync and sync/atomic types (WaitGroup, Once, Cond,
// atomic.X...) — self-synchronizing fields the coverage check should not
// demand annotations for.
func isSyncType(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}

func isAtomicValueType(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

// isRefType reports types whose value aliases shared storage: returning one
// from under a lock hands the caller a live window into guarded state.
func isRefType(t types.Type) bool {
	switch types.Unalias(t).Underlying().(type) {
	case *types.Map, *types.Slice, *types.Chan, *types.Pointer:
		return true
	}
	return false
}

func isRWMutexField(styp *types.Struct, name string) bool {
	for i := 0; i < styp.NumFields(); i++ {
		v := styp.Field(i)
		if v.Name() != name {
			continue
		}
		named := namedOf(v.Type())
		return named != nil && named.Obj().Name() == "RWMutex"
	}
	return false
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
