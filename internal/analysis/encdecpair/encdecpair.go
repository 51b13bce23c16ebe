// Package encdecpair checks that every encoder has a decoder that fuzz
// targets actually reach.
//
// The durable formats (wire messages, WAL events, index snapshots,
// segment records) are all hand-rolled encode/decode pairs. An encoder
// without a decoder is a format nothing can read back; a decoder no
// Fuzz* target reaches is a parser of untrusted bytes that never faces
// adversarial input. Concretely, for every function or method whose
// name starts with "encode":
//
//   - a matching "decode..." function must exist in the package
//     (encodeFoo pairs with decodeFoo; a method T.encode pairs with
//     decodeT);
//   - that decoder must be reachable from some Fuzz* function over the
//     package's name-based call graph (test files included, interface
//     dispatch approximated by method name).
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
	Doc:  "check every encodeX has a decodeX reachable from a Fuzz* target",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// The call graph spans checked and test files: fuzz targets live in
	// tests, decoders in the package proper.
	allFiles := append(append([]*ast.File{}, pass.Files...), pass.TestFiles...)
	funcs := analysis.PackageFuncs(allFiles, nil)

	var fuzzRoots []string
	for _, f := range pass.TestFiles {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				fuzzRoots = append(fuzzRoots, fd.Name.Name)
			}
		}
	}
	reachable := analysis.Reachable(funcs, fuzzRoots)
	decodersByType := decoderResultTypes(pass)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			candidates, ok := decoderCandidates(fd, decodersByType)
			if !ok {
				continue
			}
			var present []string
			for _, d := range candidates {
				if len(funcs[d]) > 0 {
					present = append(present, d)
				}
			}
			if len(present) == 0 {
				pass.Reportf(fd.Pos(),
					"encoder %s has no matching decoder (wanted %s): the format cannot be read back",
					fd.Name.Name, strings.Join(candidates, " or "))
				continue
			}
			anyReached := false
			for _, d := range present {
				if reachable[d] {
					anyReached = true
					break
				}
			}
			if !anyReached {
				pass.Reportf(fd.Pos(),
					"decoder %s (pairing encoder %s) is not reachable from any Fuzz* target: it parses untrusted bytes unfuzzed",
					strings.Join(present, "/"), fd.Name.Name)
			}
		}
	}
	return nil
}

// decoderResultTypes indexes decode* functions by the named types they
// return, so an unexported method like (segRecord).encode can be paired
// with decodeSegmentRecord by type rather than by unstatable name.
func decoderResultTypes(pass *analysis.Pass) map[string][]string {
	out := make(map[string][]string)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !strings.HasPrefix(fd.Name.Name, "decode") {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			for i := 0; i < sig.Results().Len(); i++ {
				t := sig.Results().At(i).Type()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if n, ok := t.(*types.Named); ok {
					out[n.Obj().Name()] = append(out[n.Obj().Name()], fd.Name.Name)
				}
			}
		}
	}
	return out
}

// decoderCandidates maps an encoder declaration to the decoder names
// that would satisfy it: encodeFoo pairs with decodeFoo by name; a
// method (T) encode pairs with any decode* returning T (or *T). Non-
// encoders return ok=false.
func decoderCandidates(fd *ast.FuncDecl, byType map[string][]string) ([]string, bool) {
	name := fd.Name.Name
	if !strings.HasPrefix(name, "encode") {
		return nil, false
	}
	if suffix := strings.TrimPrefix(name, "encode"); suffix != "" {
		return []string{"decode" + suffix}, true
	}
	// Bare "encode" must be a method; the receiver type is the subject.
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil, false
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return nil, false
	}
	if ds := byType[id.Name]; len(ds) > 0 {
		return ds, true
	}
	return []string{"decode" + id.Name + " (any decode* returning " + id.Name + ")"}, true
}
