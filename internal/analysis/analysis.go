// Package analysis is a self-contained, stdlib-only re-creation of the
// go/analysis analyzer shape, sized for this repository. The public
// golang.org/x/tools module is deliberately not a dependency (the tree
// builds offline with a zero-entry go.sum); instead this package defines
// the same Analyzer/Pass/Diagnostic contract, a loader built on
// `go list -export` and a standalone runner.
//
// The analyzers themselves live in subpackages (lockorder, encdecpair,
// ctxflow, goleak) and are registered by internal/analysis/suite.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named, documented check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //blobseer:ignore annotations.
	Name string

	// Doc is a one-paragraph description: the invariant enforced and
	// why the repo needs it machine-checked.
	Doc string

	// Run applies the check to a single package. Findings are emitted
	// through pass.Report; a non-nil error aborts the whole run (it
	// means the analyzer itself failed, not that the code is wrong).
	Run func(pass *Pass) error
}

// A Pass carries everything one analyzer needs to inspect one package.
type Pass struct {
	Analyzer *Analyzer

	Fset *token.FileSet

	// Files holds the type-checked, non-test syntax of the package.
	Files []*ast.File

	// TestFiles holds the package's in-package _test.go files, parsed
	// syntax-only (never type-checked: analyzers use them for
	// name-level evidence such as fuzz seeds, not for types).
	TestFiles []*ast.File

	// Pkg and TypesInfo describe the checked package. TypesInfo covers
	// Files only, never TestFiles.
	Pkg       *types.Package
	TypesInfo *types.Info

	// PkgPath is the import path, Dir the on-disk package directory.
	PkgPath string
	Dir     string

	// ModPath is the enclosing module's path ("blobseer" at the
	// repository root).
	ModPath string

	// Report records one finding.
	Report func(Diagnostic)
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf is the fmt-style convenience wrapper over Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// The machine-readable annotation grammar. Every directive is a //-style
// comment whose text starts with "blobseer:":
//
//	//blobseer:lockorder A < B < C
//	    Declares a partial lock order: A is acquired strictly before B,
//	    B before C. Tokens are either a bare mutex field name ("maintMu",
//	    matching that field on any type) or Type-qualified
//	    ("segment.mu"). Multiple annotations union into one order.
//
//	//blobseer:ignore analyzer[,analyzer] reason...
//	    Suppresses findings from the named analyzers on the same source
//	    line or the line directly below. The reason is mandatory; the
//	    runner counts every suppression and prints the tally, so silent
//	    waivers cannot accumulate.
//
//	//blobseer:ctx reason...
//	    Justifies a ctxflow finding on the same line or the line
//	    directly below: a deliberate lifecycle root
//	    (context.Background/TODO), a context pinned in a struct field,
//	    or an exported API that intentionally hides its context. The
//	    reason is mandatory; a bare //blobseer:ctx suppresses nothing
//	    and is itself reported.
//
//	//blobseer:goroutine detached reason...
//	    Justifies a goleak finding on the same line or the line
//	    directly below: the spawned goroutine deliberately outlives its
//	    spawner with no join. The literal word "detached" and a reason
//	    are both mandatory; anything else is reported as malformed.
const directivePrefix = "blobseer:"

// Directive is one parsed //blobseer: comment.
type Directive struct {
	Pos  token.Pos
	Verb string // "lockorder", "ignore", "ctx", ...
	Args string // remainder of the line, space-trimmed
}

// ParseDirective decodes a single comment, returning ok=false for
// ordinary comments.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, "//"+directivePrefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(text, "//"+directivePrefix)
	verb, args, _ := strings.Cut(rest, " ")
	return Directive{Pos: c.Pos(), Verb: verb, Args: strings.TrimSpace(args)}, true
}

// Directives returns every //blobseer: directive in the file, in source
// order.
func Directives(f *ast.File) []Directive {
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := ParseDirective(c); ok {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// An Ignore is one parsed //blobseer:ignore directive.
type Ignore struct {
	Pos       token.Pos
	Analyzers []string
	Reason    string
}

// ParseIgnores extracts the ignore directives of a file. Directives with
// an empty reason are returned with Reason == "" and are treated as
// malformed by the runner (they suppress nothing and are themselves
// reported).
func ParseIgnores(f *ast.File) []Ignore {
	var out []Ignore
	for _, d := range Directives(f) {
		if d.Verb != "ignore" {
			continue
		}
		names, reason, _ := strings.Cut(d.Args, " ")
		ig := Ignore{Pos: d.Pos, Reason: strings.TrimSpace(reason)}
		for _, n := range strings.Split(names, ",") {
			if n = strings.TrimSpace(n); n != "" {
				ig.Analyzers = append(ig.Analyzers, n)
			}
		}
		out = append(out, ig)
	}
	return out
}

// Matches reports whether the ignore names the given analyzer.
func (ig Ignore) Matches(analyzer string) bool {
	for _, a := range ig.Analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}
