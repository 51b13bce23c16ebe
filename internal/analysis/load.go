package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader resolves package patterns the same way the go tool does —
// by asking it. `go list -e -json -export -deps` yields, for every
// target and every dependency, the file lists plus a compiled export
// file, which lets us type-check targets from source with the gc
// importer and zero third-party machinery.

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	ModPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	TestFiles []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Errors holds type-checking problems. Analyzers still run over
	// packages with errors (matching go vet's tolerance), but the
	// runner surfaces them so a broken build is never silently
	// "clean".
	Errors []error
}

// listPkg mirrors the subset of `go list -json` output we consume.
type listPkg struct {
	ImportPath  string
	Dir         string
	Name        string
	Export      string
	GoFiles     []string
	TestGoFiles []string
	Standard    bool
	Incomplete  bool
	Module      *struct {
		Path string
	}
	Error *struct {
		Err string
	}
}

// Load resolves patterns (as understood by `go list`) relative to dir
// and returns the matched packages, type-checked, in `go list` order.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}

	// -deps emits dependencies first and the named targets last, but
	// gives no explicit marker; re-list without -deps to learn which
	// import paths were actually requested.
	targets, err := listTargets(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string) // import path -> export file
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, &p)
	}

	var loaded []*Package
	for _, p := range pkgs {
		if !targets[p.ImportPath] {
			continue
		}
		lp, err := typecheck(p, exports)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, lp)
	}
	if len(loaded) == 0 {
		return nil, fmt.Errorf("analysis: no packages matched %s", strings.Join(patterns, " "))
	}
	return loaded, nil
}

func listTargets(dir string, patterns []string) (map[string]bool, error) {
	args := append([]string{"list", "-e"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list targets: %v", err)
	}
	targets := make(map[string]bool)
	for _, line := range strings.Split(string(out), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			targets[line] = true
		}
	}
	return targets, nil
}

// typecheck parses the package's non-test files and type-checks them,
// resolving imports through the export files go list compiled.
func typecheck(p *listPkg, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	lp := &Package{
		PkgPath: p.ImportPath,
		Dir:     p.Dir,
		Fset:    fset,
	}
	if p.Module != nil {
		lp.ModPath = p.Module.Path
	}
	if p.Error != nil {
		lp.Errors = append(lp.Errors, fmt.Errorf("%s", p.Error.Err))
	}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			lp.Errors = append(lp.Errors, err)
			continue
		}
		lp.Files = append(lp.Files, f)
	}
	for _, name := range p.TestGoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			lp.Errors = append(lp.Errors, err)
			continue
		}
		lp.TestFiles = append(lp.TestFiles, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		ex, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(ex)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { lp.Errors = append(lp.Errors, err) },
	}
	pkg, _ := conf.Check(p.ImportPath, fset, lp.Files, info) // errors in lp.Errors
	lp.Pkg = pkg
	lp.TypesInfo = info
	return lp, nil
}
