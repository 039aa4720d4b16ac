package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CodecSync checks that hand-rolled codec pairs stay field-for-field in sync.
// For every struct with a paired encoder (an appendTo/AppendTo method, else a
// marshal/Marshal/encode/Encode method) and decoder (an unmarshal<Type>/decode<Type> function returning the
// type, or an unmarshal/decode method), every field of the struct must be
// referenced by both bodies. A field that is encoded but never decoded — or
// vice versa, or added to the struct and serialized by neither — is silent
// wire corruption waiting for the next codec version bump, not a compile
// error; this analyzer makes it a lint error. Intentionally runtime-only
// fields take a //lint:ignore codecsync directive on the field declaration.
type CodecSync struct{}

// NewCodecSync returns the analyzer.
func NewCodecSync() *CodecSync { return &CodecSync{} }

func (a *CodecSync) Name() string { return "codecsync" }

func (a *CodecSync) Doc() string {
	return "every field of a struct with paired encode/decode codec routines must appear in both"
}

// encoderNames is in preference order: where a type has an append-style
// encoder, that is where the fields are written and marshal only sizes the
// buffer for it.
var encoderNames = []string{"appendto", "marshal", "encode"}
var decoderNames = map[string]bool{"unmarshal": true, "decode": true}

func (a *CodecSync) Analyze(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.TargetPackages() {
		decls := funcDecls(pkg)
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			enc := a.findEncoder(named, decls)
			dec := a.findDecoder(pkg, named, decls)
			if enc == nil || dec == nil {
				continue
			}
			encFields := collectFieldRefs(pkg, named, enc.Body)
			decFields := collectFieldRefs(pkg, named, dec.Body)
			encName := recvString(enc.Recv.List[0].Type) + "." + enc.Name.Name
			decName := dec.Name.Name
			if dec.Recv != nil {
				decName = recvString(dec.Recv.List[0].Type) + "." + decName
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Name() == "_" {
					continue
				}
				inEnc, inDec := encFields[f], decFields[f]
				var msg string
				switch {
				case inEnc && !inDec:
					msg = fmt.Sprintf("field %s.%s is written by %s but never read back by %s: decoded values silently lose it",
						name, f.Name(), encName, decName)
				case !inEnc && inDec:
					msg = fmt.Sprintf("field %s.%s is read by %s but never written by %s: it decodes from garbage or shifts later fields",
						name, f.Name(), decName, encName)
				case !inEnc && !inDec:
					msg = fmt.Sprintf("field %s.%s appears in neither %s nor %s: it is silently dropped from the wire",
						name, f.Name(), encName, decName)
				default:
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:     prog.Position(f.Pos()),
					Check:   a.Name(),
					Message: msg,
				})
			}
		}
	}
	SortDiagnostics(diags)
	return diags
}

// funcDecls maps each declared function/method object to its AST declaration.
func funcDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// findEncoder returns the type's encoder method declaration, if any.
func (a *CodecSync) findEncoder(named *types.Named, decls map[*types.Func]*ast.FuncDecl) *ast.FuncDecl {
	for _, want := range encoderNames {
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); strings.ToLower(m.Name()) == want {
				return decls[m]
			}
		}
	}
	return nil
}

// findDecoder returns the type's decoder: an unmarshal/decode method on the
// type, or a package-level function whose name is unmarshal<Type>/
// decode<Type> (case-insensitive) or plain unmarshal/decode, returning the
// type (or a pointer to it).
func (a *CodecSync) findDecoder(pkg *Package, named *types.Named, decls map[*types.Func]*ast.FuncDecl) *ast.FuncDecl {
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if decoderNames[strings.ToLower(m.Name())] {
			return decls[m]
		}
	}
	typeName := strings.ToLower(named.Obj().Name())
	var best *ast.FuncDecl
	for fn, fd := range decls {
		if fd.Recv != nil {
			continue
		}
		lower := strings.ToLower(fn.Name())
		match := false
		for prefix := range decoderNames {
			if lower == prefix || lower == prefix+typeName {
				match = true
			}
		}
		if !match || !resultsInclude(fn, named) {
			continue
		}
		if best == nil || fd.Name.Name < best.Name.Name {
			best = fd
		}
	}
	return best
}

// resultsInclude reports whether fn returns the named type or a pointer to it.
func resultsInclude(fn *types.Func, named *types.Named) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if res := namedOf(sig.Results().At(i).Type()); res != nil && res.Obj() == named.Obj() {
			return true
		}
	}
	return false
}

// collectFieldRefs gathers the struct fields of the named type referenced in
// a function body: selector accesses (including promoted accesses through an
// embedded field, which credit the embedded field itself) and composite
// literal keys (an unkeyed exhaustive literal credits every field).
func collectFieldRefs(pkg *Package, named *types.Named, body *ast.BlockStmt) map[*types.Var]bool {
	st := named.Underlying().(*types.Struct)
	out := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel, ok := pkg.Info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			recv := namedOf(sel.Recv())
			if recv == nil || recv.Obj() != named.Obj() {
				return true
			}
			idx := sel.Index()
			if len(idx) > 0 && idx[0] < st.NumFields() {
				out[st.Field(idx[0])] = true
			}
		case *ast.CompositeLit:
			lt := namedOf(pkg.Info.TypeOf(n))
			if lt == nil || lt.Obj() != named.Obj() {
				return true
			}
			keyed := false
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					keyed = true
					if id, ok := kv.Key.(*ast.Ident); ok {
						if f, ok := pkg.Info.Uses[id].(*types.Var); ok {
							out[f] = true
						}
					}
				}
			}
			if !keyed && len(n.Elts) > 0 {
				for i := 0; i < st.NumFields(); i++ {
					out[st.Field(i)] = true
				}
			}
		}
		return true
	})
	return out
}
