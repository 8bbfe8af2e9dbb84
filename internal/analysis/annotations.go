package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Machine-readable concurrency annotations. These formalize the prose
// "guarded by mu" comments the storage and stream tiers accumulated
// across PRs 4-9:
//
//	//trajlint:guardedby <guard>     on a struct field. guard is a
//	    sibling field name ("mu"), or "Type.field" for a lock that
//	    lives on another struct (e.g. Store.mu, which guards each
//	    deviceLog's recency-list positions).
//	//trajlint:serializes-io         on a mutex field. Declares that
//	    file I/O under this lock is the design (the per-device log
//	    lock IS the write-path serialization point), exempting it
//	    from the lockio analyzer. Store-wide locks never get this.
//	//trajlint:holds <x>.<mu>[, ...] on a function. The caller
//	    contract "caller holds x.mu" made checkable: the lock is
//	    assumed held inside the body, and every call site is checked
//	    to actually hold it.
//	//trajlint:returns-locked <mu>   on a function whose first result
//	    is returned with its <mu> field held (segstore's lockLog).
//	    Assignments from such calls add the lock to the local set.
//
// guardedby and lockio both consume these facts; guardedby owns the
// grammar and is the analyzer that reports malformed annotations.

type guardSpec struct {
	// Exactly one of sibling / guardObj-with-typeName is set.
	sibling  string     // guard is a sibling field with this name
	typeName string     // "Type.field" form: the owning type's name
	guardObj *types.Var // resolved external guard field
	field    *types.Var // the annotated field itself
	pos      token.Pos
}

type holdSpec struct {
	base  string     // receiver or parameter name
	field string     // mutex field name on base's type
	obj   *types.Var // resolved mutex field
}

type retLockSpec struct {
	field string     // mutex field name on the first result's pointee
	obj   *types.Var // resolved mutex field
}

type facts struct {
	guarded       map[*types.Var]*guardSpec
	serializesIO  map[*types.Var]bool
	holds         map[*types.Func][]holdSpec
	returnsLocked map[*types.Func]retLockSpec
	problems      []Diagnostic // malformed annotations
}

const (
	guardedByPrefix     = "//trajlint:guardedby"
	serializesIOPrefix  = "//trajlint:serializes-io"
	holdsPrefix         = "//trajlint:holds"
	returnsLockedPrefix = "//trajlint:returns-locked"
)

// directiveArg returns (argument, true) when text is the directive
// dir, possibly followed by whitespace-separated arguments. Anything
// after a " -- " separator is free-form commentary, not argument.
func directiveArg(text, dir string) (string, bool) {
	if !strings.HasPrefix(text, dir) {
		return "", false
	}
	rest := strings.TrimPrefix(text, dir)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	if arg, _, found := strings.Cut(rest, " -- "); found {
		rest = arg
	}
	return strings.TrimSpace(rest), true
}

func collectFacts(pass *Pass) *facts {
	fx := &facts{
		guarded:       map[*types.Var]*guardSpec{},
		serializesIO:  map[*types.Var]bool{},
		holds:         map[*types.Func][]holdSpec{},
		returnsLocked: map[*types.Func]retLockSpec{},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					fx.collectStruct(pass, st)
				}
			case *ast.FuncDecl:
				fx.collectFunc(pass, d)
			}
		}
	}
	return fx
}

func fieldComments(f *ast.Field) []*ast.Comment {
	var out []*ast.Comment
	if f.Doc != nil {
		out = append(out, f.Doc.List...)
	}
	if f.Comment != nil {
		out = append(out, f.Comment.List...)
	}
	return out
}

func (fx *facts) collectStruct(pass *Pass, st *ast.StructType) {
	for _, f := range st.Fields.List {
		for _, c := range fieldComments(f) {
			if arg, ok := directiveArg(c.Text, guardedByPrefix); ok {
				fx.addGuarded(pass, st, f, c.Pos(), arg)
			}
			if arg, ok := directiveArg(c.Text, serializesIOPrefix); ok {
				if arg != "" {
					fx.problems = append(fx.problems, Diagnostic{c.Pos(), "trajlint:serializes-io takes no argument"})
					continue
				}
				fx.addSerializesIO(pass, f, c.Pos())
			}
		}
	}
}

func (fx *facts) addGuarded(pass *Pass, st *ast.StructType, f *ast.Field, pos token.Pos, arg string) {
	if arg == "" {
		fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:guardedby needs a guard: a sibling field name or Type.field"})
		return
	}
	spec := &guardSpec{pos: pos}
	if typeName, field, ok := strings.Cut(arg, "."); ok {
		spec.typeName = typeName
		obj := pass.Pkg.Scope().Lookup(typeName)
		tn, _ := obj.(*types.TypeName)
		if tn == nil {
			fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:guardedby: no type " + typeName + " in this package"})
			return
		}
		spec.guardObj = structField(tn.Type(), field)
		if spec.guardObj == nil || !isMutexType(spec.guardObj.Type()) {
			fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:guardedby: " + arg + " is not a mutex field"})
			return
		}
	} else {
		spec.sibling = arg
		g := findSibling(pass, st, arg)
		if g == nil || !isMutexType(g.Type()) {
			fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:guardedby: no sibling mutex field " + arg})
			return
		}
		spec.guardObj = g
	}
	for _, name := range f.Names {
		v, _ := pass.TypesInfo.Defs[name].(*types.Var)
		if v == nil {
			continue
		}
		s := *spec
		s.field = v
		fx.guarded[v] = &s
	}
}

func (fx *facts) addSerializesIO(pass *Pass, f *ast.Field, pos token.Pos) {
	for _, name := range f.Names {
		v, _ := pass.TypesInfo.Defs[name].(*types.Var)
		if v == nil {
			continue
		}
		if !isMutexType(v.Type()) {
			fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:serializes-io must annotate a mutex field"})
			continue
		}
		fx.serializesIO[v] = true
	}
}

func findSibling(pass *Pass, st *ast.StructType, name string) *types.Var {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				v, _ := pass.TypesInfo.Defs[n].(*types.Var)
				return v
			}
		}
	}
	return nil
}

// structField finds a direct field by name on t (behind pointers).
func structField(t types.Type, name string) *types.Var {
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		if p, ok2 := t.Underlying().(*types.Pointer); ok2 {
			s, ok = p.Elem().Underlying().(*types.Struct)
		}
		if !ok {
			return nil
		}
	}
	for i := 0; i < s.NumFields(); i++ {
		if s.Field(i).Name() == name {
			return s.Field(i)
		}
	}
	return nil
}

func (fx *facts) collectFunc(pass *Pass, fd *ast.FuncDecl) {
	if fd.Doc == nil {
		return
	}
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return
	}
	for _, c := range fd.Doc.List {
		if arg, ok := directiveArg(c.Text, holdsPrefix); ok {
			fx.addHolds(pass, fd, fn, c.Pos(), arg)
		}
		if arg, ok := directiveArg(c.Text, returnsLockedPrefix); ok {
			fx.addReturnsLocked(pass, fd, fn, c.Pos(), arg)
		}
	}
}

// paramType resolves name to the type of fd's receiver or a
// parameter with that name.
func paramType(pass *Pass, fd *ast.FuncDecl, name string) types.Type {
	check := func(fl *ast.FieldList) types.Type {
		if fl == nil {
			return nil
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				if n.Name == name {
					if v, ok := pass.TypesInfo.Defs[n].(*types.Var); ok {
						return v.Type()
					}
				}
			}
		}
		return nil
	}
	if t := check(fd.Recv); t != nil {
		return t
	}
	return check(fd.Type.Params)
}

func (fx *facts) addHolds(pass *Pass, fd *ast.FuncDecl, fn *types.Func, pos token.Pos, arg string) {
	if arg == "" {
		fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:holds needs one or more <receiver-or-param>.<mutex> arguments"})
		return
	}
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		base, field, ok := strings.Cut(part, ".")
		if !ok {
			fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:holds: " + part + " is not of the form x.mu"})
			continue
		}
		bt := paramType(pass, fd, base)
		if bt == nil {
			fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:holds: " + base + " is not a receiver or parameter of this function"})
			continue
		}
		mv := structField(bt, field)
		if mv == nil || !isMutexType(mv.Type()) {
			fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:holds: " + part + " is not a mutex field"})
			continue
		}
		fx.holds[fn] = append(fx.holds[fn], holdSpec{base: base, field: field, obj: mv})
	}
}

func (fx *facts) addReturnsLocked(pass *Pass, fd *ast.FuncDecl, fn *types.Func, pos token.Pos, arg string) {
	if arg == "" || strings.ContainsAny(arg, ". ") {
		fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:returns-locked needs a single mutex field name on the first result's type"})
		return
	}
	res := fd.Type.Results
	if res == nil || len(res.List) == 0 {
		fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:returns-locked on a function with no results"})
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() == 0 {
		return
	}
	mv := structField(sig.Results().At(0).Type(), arg)
	if mv == nil || !isMutexType(mv.Type()) {
		fx.problems = append(fx.problems, Diagnostic{pos, "trajlint:returns-locked: first result has no mutex field " + arg})
		return
	}
	fx.returnsLocked[fn] = retLockSpec{field: arg, obj: mv}
}
