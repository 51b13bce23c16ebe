// Package ctxflow enforces the repository's cancellation discipline:
// every blocking operation must be cancellable from the caller, which
// means contexts flow down call paths — they are not conjured out of
// thin air mid-stack, not frozen into struct fields, and not silently
// dropped at exported API boundaries.
//
// Three rules, checked over every non-main, non-test package:
//
//  1. context.Background() and context.TODO() calls are findings.
//     Libraries receive their context; only process entry points
//     (package main, tests) and explicit lifecycle roots create one.
//  2. A struct field of type context.Context is a finding. A stored
//     context outlives the call that supplied it and silently decouples
//     cancellation from the caller.
//  3. An exported function or method (exported name, and — for methods
//     — an exported receiver type) that has no context.Context
//     parameter yet passes a context-typed value to some call in its
//     body is a finding: it performs cancellable work its callers
//     cannot cancel. Untyped nil arguments and direct
//     context.Background()/TODO() arguments are skipped (the latter are
//     already rule 1 findings), and nested function literals are not
//     the exported surface, so they are not descended into.
//
// Every rule accepts a justified escape annotation on the same line or
// the line directly above the finding:
//
//	//blobseer:ctx <reason>
//
// A reason-less //blobseer:ctx suppresses nothing and is itself a
// finding, so silent waivers cannot accumulate.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"blobseer/internal/analysis"
)

// Analyzer is the ctxflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "contexts must flow from callers: no Background/TODO outside roots, no contexts in struct fields, no exported blocking APIs without a ctx parameter",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == "main" {
		return nil // process entry points own their lifecycle roots
	}
	ann := collectAnnotations(pass)
	for _, f := range pass.Files {
		checkFile(pass, f, ann)
	}
	return nil
}

// annotations maps file -> line -> true for every well-formed
// //blobseer:ctx directive. Reason-less directives are reported and
// recorded nowhere, so they suppress nothing.
type annotations map[string]map[int]bool

func collectAnnotations(pass *analysis.Pass) annotations {
	ann := make(annotations)
	for _, f := range pass.Files {
		for _, d := range analysis.Directives(f) {
			if d.Verb != "ctx" {
				continue
			}
			if d.Args == "" {
				pass.Reportf(d.Pos, "//blobseer:ctx without a justification: write //blobseer:ctx <reason>")
				continue
			}
			p := pass.Fset.Position(d.Pos)
			if ann[p.Filename] == nil {
				ann[p.Filename] = make(map[int]bool)
			}
			ann[p.Filename][p.Line] = true
		}
	}
	return ann
}

// justified reports whether a well-formed //blobseer:ctx sits on the
// finding's line or the line directly above it.
func (ann annotations) justified(pass *analysis.Pass, pos token.Pos) bool {
	p := pass.Fset.Position(pos)
	lines := ann[p.Filename]
	return lines != nil && (lines[p.Line] || lines[p.Line-1])
}

func checkFile(pass *analysis.Pass, f *ast.File, ann annotations) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkRootCall(pass, n, ann)
		case *ast.StructType:
			checkStructFields(pass, n, ann)
		case *ast.FuncDecl:
			checkExportedDecl(pass, n, ann)
		}
		return true
	})
}

// checkRootCall is rule 1: Background/TODO call sites.
func checkRootCall(pass *analysis.Pass, call *ast.CallExpr, ann annotations) {
	var name string
	switch {
	case analysis.IsPkgFunc(pass.TypesInfo, call, "context", "Background"):
		name = "Background"
	case analysis.IsPkgFunc(pass.TypesInfo, call, "context", "TODO"):
		name = "TODO"
	default:
		return
	}
	if ann.justified(pass, call.Pos()) {
		return
	}
	pass.Reportf(call.Pos(),
		"context.%s() in package %s: thread the caller's context, or justify a lifecycle root with //blobseer:ctx <reason>",
		name, pass.Pkg.Name())
}

// checkStructFields is rule 2: contexts frozen into structs.
func checkStructFields(pass *analysis.Pass, st *ast.StructType, ann annotations) {
	for _, field := range st.Fields.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		if ann.justified(pass, field.Pos()) {
			continue
		}
		name := "embedded"
		if len(field.Names) > 0 {
			name = field.Names[0].Name
		}
		pass.Reportf(field.Pos(),
			"context stored in struct field %s: contexts flow through call paths, not structs (justify with //blobseer:ctx <reason>)",
			name)
	}
}

// checkExportedDecl is rule 3: exported APIs that pass a context they
// did not receive.
func checkExportedDecl(pass *analysis.Pass, fd *ast.FuncDecl, ann annotations) {
	if fd.Body == nil || !fd.Name.IsExported() || !exportedReceiver(fd) {
		return
	}
	if hasContextParam(pass, fd) {
		return
	}
	if !passesOwnContext(pass, fd.Body) {
		return
	}
	if ann.justified(pass, fd.Pos()) {
		return
	}
	kind := "function"
	if fd.Recv != nil {
		kind = "method"
	}
	pass.Reportf(fd.Pos(),
		"exported %s %s passes a context but takes no context.Context parameter: callers cannot cancel it (justify with //blobseer:ctx <reason>)",
		kind, fd.Name.Name)
}

// exportedReceiver reports whether fd is a plain function or a method
// on an exported type. Methods on unexported types are not API surface.
func exportedReceiver(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true // unknown shape: err on the side of checking
		}
	}
}

func hasContextParam(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	for _, p := range fd.Type.Params.List {
		if tv, ok := pass.TypesInfo.Types[p.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// passesOwnContext reports whether the body, at its own nesting level
// (function literals excluded), passes a context-typed argument to any
// call. Untyped nils and direct Background/TODO calls are skipped.
func passesOwnContext(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures are not the exported surface
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if inner, ok := arg.(*ast.CallExpr); ok {
				if analysis.IsPkgFunc(pass.TypesInfo, inner, "context", "Background") ||
					analysis.IsPkgFunc(pass.TypesInfo, inner, "context", "TODO") {
					continue // rule 1's finding, not rule 3's
				}
			}
			tv, ok := pass.TypesInfo.Types[arg]
			if !ok || tv.IsNil() {
				continue
			}
			if isContextType(tv.Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
