// Package encdecpair checks that every layout is fuzzed.
//
// Every durable or wire format — messages, tree nodes, WAL events,
// snapshots — is written once, as a layout over a wire.Codec that both
// encodes and decodes it (package wire). Decoding is the half that faces
// untrusted bytes, so every function of a package that takes a
// wire.Codec must be reachable from some Fuzz* function of that package
// over the name-based call graph (test files included, interface
// dispatch approximated by method name). A layout nothing fuzzes is a
// parser of untrusted bytes that never faces adversarial input.
package encdecpair

import (
	"go/ast"
	"go/types"
	"strings"

	"blobseer/internal/analysis"
)

// Analyzer is the encdecpair analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "encdecpair",
	Doc:  "check every function taking a wire.Codec is reachable from a Fuzz* target",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// The call graph spans checked and test files: fuzz targets live in
	// tests, layouts in the package proper.
	allFiles := append(append([]*ast.File{}, pass.Files...), pass.TestFiles...)
	var fuzzRoots []string
	for _, f := range pass.TestFiles {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				fuzzRoots = append(fuzzRoots, fd.Name.Name)
			}
		}
	}
	reachable := analysis.Reachable(analysis.PackageFuncs(allFiles, nil), fuzzRoots)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && takesCodec(pass.TypesInfo, fd) && !reachable[fd.Name.Name] {
				pass.Reportf(fd.Pos(),
					"%s takes a wire.Codec but no Fuzz* target reaches it: it parses untrusted bytes unfuzzed",
					fd.Name.Name)
			}
		}
	}
	return nil
}

// takesCodec reports whether one of fd's parameters (its receiver
// aside) is a wire.Codec or a pointer to one.
func takesCodec(info *types.Info, fd *ast.FuncDecl) bool {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok && n.Obj().Name() == "Codec" &&
			n.Obj().Pkg() != nil && strings.HasSuffix(n.Obj().Pkg().Path(), "internal/wire") {
			return true
		}
	}
	return false
}
