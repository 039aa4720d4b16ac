package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockKind distinguishes write locks from RWMutex read locks.
type lockKind int

const (
	lockWrite lockKind = iota
	lockRead
)

func (k lockKind) String() string {
	if k == lockRead {
		return "read"
	}
	return "write"
}

// heldLock is one mutex the scanner believes is held at a program point.
type heldLock struct {
	// key identifies the lock within the function ("s.mu"). It is the scan
	// state key: acquiring and releasing match on it.
	key string
	// global identifies the lock across the whole program
	// ("ray/internal/gcs.Store.mu" for struct fields, "pkg.varname" for
	// package-level mutexes). Empty for function-local mutexes, which cannot
	// participate in cross-function ordering.
	global string
	kind   lockKind
	pos    token.Pos
}

// lockState is the set of locks held at a program point, keyed by lock key.
type lockState map[string]heldLock

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// held returns the current locks in deterministic (key) order.
func (s lockState) held() []heldLock {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]heldLock, 0, len(keys))
	for _, k := range keys {
		out = append(out, s[k])
	}
	return out
}

// replace swaps s's contents for those of other (maps are references; the
// caller's view must see merged branch results).
func (s lockState) replace(other lockState) {
	for k := range s {
		delete(s, k)
	}
	for k, v := range other {
		s[k] = v
	}
}

// intersectStates keeps only locks held on every fall-through path.
func intersectStates(states []lockState) lockState {
	if len(states) == 0 {
		return lockState{}
	}
	out := states[0].clone()
	for _, st := range states[1:] {
		for k := range out {
			if _, ok := st[k]; !ok {
				delete(out, k)
			}
		}
	}
	return out
}

// accessKind classifies how a struct field is touched at an access site.
type accessKind int

const (
	// accessRead is a plain read of the field's value.
	accessRead accessKind = iota
	// accessWrite is an assignment, compound assignment, ++/--, or a
	// mutation through an index expression (s.m[k] = v mutates s.m).
	accessWrite
	// accessAddr is the field's address being taken outside a sync/atomic
	// call — an alias that escapes the scanner's lock tracking.
	accessAddr
	// accessAtomic is the field's address passed directly to a sync/atomic
	// function (atomic.AddInt64(&s.n, 1)).
	accessAtomic
	// accessReturn is the field returned from the enclosing function; for
	// reference types the caller now aliases guarded state.
	accessReturn
)

func (k accessKind) String() string {
	switch k {
	case accessWrite:
		return "write"
	case accessAddr:
		return "address-of"
	case accessAtomic:
		return "atomic access"
	case accessReturn:
		return "return"
	default:
		return "read"
	}
}

// lockCallbacks are the analyzer hooks driven by the scanner.
type lockCallbacks struct {
	// blocked fires for a potentially blocking operation (channel send or
	// receive, select without default, call the analyzer's blocking-set check
	// matched) reached while at least one lock is held.
	blocked func(held []heldLock, pos token.Pos, what string)
	// acquire fires on every mutex acquisition, with the locks held at that
	// moment (possibly none).
	acquire func(held []heldLock, lk heldLock)
	// call fires for every resolved function or method call, with the locks
	// held at that moment (possibly none).
	call func(held []heldLock, callee *types.Func, call *ast.CallExpr)
	// isBlockingCall lets the analyzer classify calls as blocking (the
	// configurable blocking set), given the locks held at the call. May be
	// nil. Receiving the held set lets the analyzer treat sync.Cond.Wait —
	// which requires exactly its own mutex held — as blocking only when
	// additional locks are held.
	isBlockingCall func(callee *types.Func, held []heldLock) bool
	// access fires for every struct-field selector evaluated, with the locks
	// held at that moment. The guardedby analyzer consumes these events.
	access func(held []heldLock, sel *ast.SelectorExpr, kind accessKind)
}

// lockScanner performs an approximate abstract interpretation of one function
// body, tracking which mutexes are held at each statement. Branches are
// scanned with copies of the state and fall-through exits are intersected, so
// the common Go shapes — lock/defer-unlock, early-unlock-and-return guards,
// unlock-in-every-branch — are modeled precisely. Loop bodies are scanned
// once. Function literals are NOT descended into: they execute in their own
// dynamic context and are scanned as independent functions.
type lockScanner struct {
	pkg *Package
	cb  lockCallbacks
}

func (s *lockScanner) scan(fb funcBody) {
	// //guard:holds annotations declare locks the caller must hold; the body
	// is scanned with them pre-acquired. The guardedby analyzer checks the
	// caller side of the contract at every call site.
	state := seedHolds(s.pkg, fb)
	s.scanBlock(fb.body.List, state)
}

// scanBlock scans statements in order; it returns true if the block always
// terminates (returns, panics, or branches away) rather than falling through.
func (s *lockScanner) scanBlock(stmts []ast.Stmt, state lockState) bool {
	for _, st := range stmts {
		if s.scanStmt(st, state) {
			return true
		}
	}
	return false
}

func (s *lockScanner) scanStmt(st ast.Stmt, state lockState) bool {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if lk, op, ok := s.lockOp(call); ok {
				s.applyLockOp(state, lk, op)
				return false
			}
			if isTerminalCall(call) {
				s.scanExpr(st.X, state)
				return true
			}
		}
		s.scanExpr(st.X, state)
	case *ast.SendStmt:
		if len(state) > 0 && s.cb.blocked != nil {
			s.cb.blocked(state.held(), st.Arrow, "channel send")
		}
		s.scanExpr(st.Chan, state)
		s.scanExpr(st.Value, state)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.scanExpr(e, state)
		}
		for _, e := range st.Lhs {
			s.scanWriteTarget(e, state)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.scanExpr(v, state)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		s.scanWriteTarget(st.X, state)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && s.fieldSelection(sel) != nil {
				s.fireAccess(state, sel, accessReturn)
				s.scanExpr(sel.X, state)
				continue
			}
			s.scanExpr(e, state)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the enclosing block; treat the path as
		// not falling through to the statements after this block.
		return true
	case *ast.DeferStmt:
		s.scanDefer(st, state)
	case *ast.GoStmt:
		// Argument expressions evaluate now; the goroutine body runs in its
		// own context (scanned as an independent function).
		for _, a := range st.Call.Args {
			s.scanExpr(a, state)
		}
	case *ast.BlockStmt:
		return s.scanBlock(st.List, state)
	case *ast.LabeledStmt:
		return s.scanStmt(st.Stmt, state)
	case *ast.IfStmt:
		return s.scanIf(st, state)
	case *ast.ForStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, state)
		}
		if st.Cond != nil {
			s.scanExpr(st.Cond, state)
		}
		body := state.clone()
		s.scanBlock(st.Body.List, body)
		if st.Post != nil {
			s.scanStmt(st.Post, body)
		}
	case *ast.RangeStmt:
		s.scanExpr(st.X, state)
		body := state.clone()
		s.scanBlock(st.Body.List, body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, state)
		}
		if st.Tag != nil {
			s.scanExpr(st.Tag, state)
		}
		return s.scanCases(st.Body.List, state, true)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			s.scanStmt(st.Init, state)
		}
		s.scanStmt(st.Assign, state)
		return s.scanCases(st.Body.List, state, true)
	case *ast.SelectStmt:
		return s.scanSelect(st, state)
	}
	return false
}

func (s *lockScanner) scanIf(st *ast.IfStmt, state lockState) bool {
	if st.Init != nil {
		s.scanStmt(st.Init, state)
	}
	s.scanExpr(st.Cond, state)
	thenState := state.clone()
	elseEntry := state.clone()
	// `if s.mu.TryLock() { ... }` holds the lock on the then-path only;
	// `if !s.mu.TryLock() { return }` holds it on the else/fall-through path.
	if lk, ok := s.tryLockCond(st.Cond, false); ok {
		thenState[lk.key] = lk
		if s.cb.acquire != nil {
			s.cb.acquire(state.held(), lk)
		}
	} else if lk, ok := s.tryLockCond(st.Cond, true); ok {
		elseEntry[lk.key] = lk
		if s.cb.acquire != nil {
			s.cb.acquire(state.held(), lk)
		}
	}
	thenTerm := s.scanBlock(st.Body.List, thenState)
	var exits []lockState
	if !thenTerm {
		exits = append(exits, thenState)
	}
	if st.Else != nil {
		if !s.scanStmt(st.Else, elseEntry) {
			exits = append(exits, elseEntry)
		}
	} else {
		// No else: the condition-false path falls through unchanged (with the
		// negated-TryLock acquisition, if any).
		exits = append(exits, elseEntry)
	}
	if len(exits) == 0 {
		return true
	}
	state.replace(intersectStates(exits))
	return false
}

// tryLockCond recognizes a TryLock/TryRLock call used directly as an if
// condition, optionally under a leading negation.
func (s *lockScanner) tryLockCond(cond ast.Expr, negated bool) (heldLock, bool) {
	e := ast.Unparen(cond)
	if negated {
		ue, ok := e.(*ast.UnaryExpr)
		if !ok || ue.Op != token.NOT {
			return heldLock{}, false
		}
		e = ast.Unparen(ue.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return heldLock{}, false
	}
	lk, op, ok := s.lockOp(call)
	if !ok || (op != "TryLock" && op != "TryRLock") {
		return heldLock{}, false
	}
	return lk, true
}

// scanWriteTarget scans an assignment's left-hand side: the outermost field
// selector is a write (an index expression mutates the indexed container, so
// `s.m[k] = v` writes s.m), dereferences read the pointer, and nested
// expressions are scanned normally.
func (s *lockScanner) scanWriteTarget(e ast.Expr, state lockState) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if s.fieldSelection(x) != nil {
			s.fireAccess(state, x, accessWrite)
			s.scanExpr(x.X, state)
			return
		}
		s.scanExpr(e, state)
	case *ast.IndexExpr:
		s.scanExpr(x.Index, state)
		s.scanWriteTarget(x.X, state)
	case *ast.StarExpr:
		s.scanExpr(x.X, state)
	default:
		s.scanExpr(e, state)
	}
}

// fieldSelection resolves sel to the struct field it reads, or nil when the
// selector is a method, package member, or unresolved.
func (s *lockScanner) fieldSelection(sel *ast.SelectorExpr) *types.Var {
	selection, ok := s.pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	v, _ := selection.Obj().(*types.Var)
	return v
}

func (s *lockScanner) fireAccess(state lockState, sel *ast.SelectorExpr, kind accessKind) {
	if s.cb.access != nil && s.fieldSelection(sel) != nil {
		s.cb.access(state.held(), sel, kind)
	}
}

// scanCases handles switch/type-switch clause bodies. When the statement has
// no default clause (noDefaultFallthrough), the untaken path falls through
// with the entry state.
func (s *lockScanner) scanCases(clauses []ast.Stmt, state lockState, addEntryIfNoDefault bool) bool {
	var exits []lockState
	hasDefault := false
	for _, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			s.scanExpr(e, state)
		}
		cs := state.clone()
		if !s.scanBlock(cc.Body, cs) {
			exits = append(exits, cs)
		}
	}
	if addEntryIfNoDefault && !hasDefault {
		exits = append(exits, state.clone())
	}
	if len(exits) == 0 {
		return true
	}
	state.replace(intersectStates(exits))
	return false
}

func (s *lockScanner) scanSelect(st *ast.SelectStmt, state lockState) bool {
	hasDefault := false
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault && len(state) > 0 && s.cb.blocked != nil {
		s.cb.blocked(state.held(), st.Select, "select without default")
	}
	var exits []lockState
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		cs := state.clone()
		// The comm statement's channel operation is the select's own
		// (non-)blocking behavior, already accounted for above; scan only its
		// nested expressions for calls.
		if cc.Comm != nil {
			s.scanCommOperands(cc.Comm, cs)
		}
		if !s.scanBlock(cc.Body, cs) {
			exits = append(exits, cs)
		}
	}
	if len(exits) == 0 {
		return true
	}
	state.replace(intersectStates(exits))
	return false
}

// scanCommOperands scans a select comm clause's operand expressions without
// flagging the top-level send/receive itself.
func (s *lockScanner) scanCommOperands(comm ast.Stmt, state lockState) {
	strip := func(e ast.Expr) {
		if ue, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
			s.scanExpr(ue.X, state)
			return
		}
		s.scanExpr(e, state)
	}
	switch c := comm.(type) {
	case *ast.SendStmt:
		s.scanExpr(c.Chan, state)
		s.scanExpr(c.Value, state)
	case *ast.AssignStmt:
		for _, e := range c.Rhs {
			strip(e)
		}
	case *ast.ExprStmt:
		strip(c.X)
	}
}

// scanDefer models deferred mutex releases: a deferred Unlock (directly or
// inside a deferred closure) keeps the lock held for the remainder of the
// function in our model, which is exactly what "held" means for the scan —
// so no state change is needed. Argument expressions evaluate immediately.
func (s *lockScanner) scanDefer(st *ast.DeferStmt, state lockState) {
	for _, a := range st.Call.Args {
		s.scanExpr(a, state)
	}
	if _, _, ok := s.lockOp(st.Call); ok {
		return
	}
	// Other deferred calls run at function exit; their bodies (for literals)
	// are scanned as independent functions.
}

// scanExpr walks an expression for channel receives, calls, and struct-field
// accesses, skipping function literal bodies.
func (s *lockScanner) scanExpr(expr ast.Expr, state lockState) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			s.fireAccess(state, n, accessRead)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(state) > 0 && s.cb.blocked != nil {
				s.cb.blocked(state.held(), n.OpPos, "channel receive")
			}
			if n.Op == token.AND {
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && s.fieldSelection(sel) != nil {
					s.fireAccess(state, sel, accessAddr)
					s.scanExpr(sel.X, state)
					return false
				}
			}
		case *ast.CallExpr:
			if _, _, ok := s.lockOp(n); ok {
				// TryLock or a lock call in expression position: no state
				// change (TryLock may fail; the if-condition form is modeled
				// in scanIf).
				return true
			}
			callee := calleeOf(s.pkg.Info, n)
			if callee == nil {
				return true
			}
			if s.cb.call != nil {
				s.cb.call(state.held(), callee, n)
			}
			if len(state) > 0 && s.cb.blocked != nil && s.cb.isBlockingCall != nil {
				if held := state.held(); s.cb.isBlockingCall(callee, held) {
					s.cb.blocked(held, n.Lparen, "call to "+funcFullName(callee))
				}
			}
			// &s.f handed to a sync/atomic function is the blessed access
			// path for //guard:atomic fields; classify those operands
			// distinctly from a plain escaping address-of.
			if callee.Pkg() != nil && callee.Pkg().Path() == "sync/atomic" {
				for _, arg := range n.Args {
					if ue, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && ue.Op == token.AND {
						if sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr); ok && s.fieldSelection(sel) != nil {
							s.fireAccess(state, sel, accessAtomic)
							s.scanExpr(sel.X, state)
							continue
						}
					}
					s.scanExpr(arg, state)
				}
				return false
			}
		}
		return true
	})
}

func (s *lockScanner) applyLockOp(state lockState, lk heldLock, op string) {
	switch op {
	case "Lock", "RLock":
		prev := state.held()
		state[lk.key] = lk
		if s.cb.acquire != nil {
			s.cb.acquire(prev, lk)
		}
	case "Unlock", "RUnlock":
		delete(state, lk.key)
	}
}

// lockOp reports whether call is a Lock/RLock/Unlock/RUnlock/TryLock method
// call on a sync.Mutex or sync.RWMutex (directly, through a field, or through
// an embedded mutex), returning the lock's identity and the operation name.
// TryLock/TryRLock return ok=true with op left as the try name, which
// applyLockOp ignores.
func (s *lockScanner) lockOp(call *ast.CallExpr) (heldLock, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return heldLock{}, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return heldLock{}, "", false
	}
	selection, ok := s.pkg.Info.Selections[sel]
	if !ok {
		return heldLock{}, "", false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return heldLock{}, "", false
	}
	recv := namedOf(fn.Type().(*types.Signature).Recv().Type())
	if recv == nil {
		return heldLock{}, "", false
	}
	switch recv.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return heldLock{}, "", false
	}
	kind := lockWrite
	if op == "RLock" || op == "RUnlock" || op == "TryRLock" {
		kind = lockRead
	}
	key, global := s.lockIdentity(sel, selection)
	return heldLock{key: key, global: global, kind: kind, pos: call.Pos()}, op, true
}

// lockIdentity derives the per-function key and cross-program identity of the
// mutex a lock method call operates on.
func (s *lockScanner) lockIdentity(sel *ast.SelectorExpr, selection *types.Selection) (key, global string) {
	base := ast.Unparen(sel.X)
	key = types.ExprString(base)

	// Embedded mutex: the method selection's index path traverses struct
	// fields before reaching the method. Name those fields explicitly so
	// "s.Lock()" on a struct embedding sync.Mutex identifies as "Type.Mutex".
	idx := selection.Index()
	if len(idx) > 1 {
		names, owner := fieldPathNames(s.pkg.Info.TypeOf(base), idx[:len(idx)-1])
		if len(names) > 0 {
			key = key + "." + strings.Join(names, ".")
			if owner != "" {
				global = owner + "." + strings.Join(names, ".")
			}
			return key, global
		}
	}

	switch b := base.(type) {
	case *ast.SelectorExpr:
		// s.mu / s.inner.mu: identify by the owning named struct type plus
		// the field name, so every instance of the type shares one identity.
		if fieldSel, ok := s.pkg.Info.Selections[b]; ok && fieldSel.Kind() == types.FieldVal {
			if owner := namedOf(fieldSel.Recv()); owner != nil && owner.Obj().Pkg() != nil {
				global = owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + b.Sel.Name
			}
		} else if obj, ok := s.pkg.Info.Uses[b.Sel]; ok {
			// Package-qualified package-level mutex (otherpkg.Mu).
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				global = v.Pkg().Path() + "." + v.Name()
			}
		}
	case *ast.Ident:
		if obj, ok := s.pkg.Info.Uses[b].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			global = obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return key, global
}

// fieldPathNames resolves a types.Selection index path to field names,
// returning the names and the full name of the root named type.
func fieldPathNames(t types.Type, idx []int) (names []string, owner string) {
	named := namedOf(t)
	if named != nil && named.Obj().Pkg() != nil {
		owner = named.Obj().Pkg().Path() + "." + named.Obj().Name()
	}
	cur := t
	for _, i := range idx {
		cur = types.Unalias(cur)
		if ptr, ok := cur.(*types.Pointer); ok {
			cur = types.Unalias(ptr.Elem())
		}
		st, ok := cur.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return nil, owner
		}
		f := st.Field(i)
		names = append(names, f.Name())
		cur = f.Type()
	}
	return names, owner
}

// isTerminalCall reports calls that never return (panic, os.Exit).
func isTerminalCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if pkg.Name == "os" && fun.Sel.Name == "Exit" {
				return true
			}
			if pkg.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal") {
				return true
			}
		}
	}
	return false
}
