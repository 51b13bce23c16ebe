package analysis

import (
	"go/ast"
	"go/types"
)

// Call-graph helpers shared by the analyzers, within one package. The
// invariants being checked (lock acquisition, fuzz reachability,
// goroutine joins) are all "does some path exist" properties where
// over-approximation costs at worst a justified //blobseer:ignore and
// under-approximation costs a missed crash bug. The syntax-only graph
// (Callees, Reachable) is deliberately coarse: edges by bare name.

// CalleeName extracts the bare callee name of a call expression:
// "f" for f(...), "m" for x.m(...) and pkg.m(...). Returns "" for
// indirect calls through non-selector expressions.
func CalleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// FuncKey names a function as the typed call graph does: "f", or "T.m"
// for a method of T or *T.
func FuncKey(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// LocalCallees resolves a call to the FuncKeys of what in pkg it may
// run: the function or method it names or, through an interface pkg
// declares, that method of each type in pkg implementing it (a generic
// type, when it has the method) — a file interface's Close never
// reaches an unrelated KV.Close. Nil for builtins, indirect calls and
// other packages' functions (os.File.Close vs a local Close method).
func LocalCallees(info *types.Info, pkg *types.Package, call *ast.CallExpr) []string {
	id, _ := call.Fun.(*ast.Ident)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != pkg {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !types.IsInterface(recv.Type()) {
		return []string{FuncKey(fn)}
	}
	var keys []string
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		sel := types.NewMethodSet(ptr).Lookup(pkg, fn.Name())
		generic := tn.Type().(*types.Named).TypeParams().Len() > 0
		if sel == nil || !generic && !types.Implements(ptr, recv.Type().Underlying().(*types.Interface)) {
			continue
		}
		if m := sel.Obj().(*types.Func); m.Pkg() == pkg {
			keys = append(keys, FuncKey(m))
		}
	}
	return keys
}

// PackageFuncs indexes every function declaration in the given files by
// bare name — methods and functions share it on purpose (see package
// comment) — or, given info, by FuncKey. Colliding ones are all kept.
func PackageFuncs(files []*ast.File, info *types.Info) map[string][]*ast.FuncDecl {
	out := make(map[string][]*ast.FuncDecl)
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				key := fd.Name.Name
				if info != nil {
					if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
						key = FuncKey(fn)
					}
				}
				out[key] = append(out[key], fd)
			}
		}
	}
	return out
}

// Callees returns the bare names called anywhere inside the node, in
// source order, with duplicates preserved.
func Callees(n ast.Node) []string {
	var out []string
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := CalleeName(call); name != "" {
				out = append(out, name)
			}
		}
		return true
	})
	return out
}

// Reachable computes the set of function names reachable from the given
// roots over the name-based call graph of funcs. Roots are included.
func Reachable(funcs map[string][]*ast.FuncDecl, roots []string) map[string]bool {
	seen := make(map[string]bool)
	var visit func(string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		for _, fd := range funcs[name] {
			if fd.Body == nil {
				continue
			}
			for _, callee := range Callees(fd.Body) {
				if _, ok := funcs[callee]; ok {
					visit(callee)
				}
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}

// ReceiverTypeName resolves the named type of an expression (typically a
// selector base like `s` in s.wmu), stripping pointers. Returns ""
// when the type is unnamed or unknown.
func ReceiverTypeName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok {
		return ""
	}
	t := tv.Type
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// IsPkgFunc reports whether the call targets pkgPath.funcName (e.g.
// os.Rename), resolved through the type checker so aliased imports and
// shadowing cannot fool it.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, funcName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != funcName {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}
