package analysis

import (
	"go/ast"
	"go/types"
)

// Name-level call-graph helpers shared by the analyzers. The graph is
// deliberately coarse — edges by bare function/method name, within one
// package — because the invariants being checked (lock acquisition,
// fsync-before-rename, fuzz reachability) are all "does some path
// exist" properties where over-approximation costs at worst a
// justified //blobseer:ignore and under-approximation costs a missed
// crash bug.

// FuncName returns the bare name of a func or method declaration
// ("applyBatch" for both func applyBatch and func (d *Disk) applyBatch).
func FuncName(fd *ast.FuncDecl) string { return fd.Name.Name }

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

// LocalCalleeName resolves a call to a function or method declared in
// pkg, returning its bare name, or "" for builtins, other packages'
// functions (os.File.Close vs a local Close method) and indirect calls.
// Use it wherever typed files are available; the pure name-based
// CalleeName is for syntax-only test files.
func LocalCalleeName(info *types.Info, pkg *types.Package, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return ""
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() != pkg {
		return ""
	}
	return fn.Name()
}

// PackageFuncs indexes every function declaration in the given files by
// bare name. Methods and functions share the namespace on purpose (see
// package comment); when names collide, all declarations are kept.
func PackageFuncs(files []*ast.File) map[string][]*ast.FuncDecl {
	out := make(map[string][]*ast.FuncDecl)
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				out[fd.Name.Name] = append(out[fd.Name.Name], fd)
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

// IsOSFileSync reports whether the call is (*os.File).Sync, i.e. an
// fsync of an open file.
func IsOSFileSync(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sync" {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
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
