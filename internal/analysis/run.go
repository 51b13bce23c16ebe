package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
)

// A Finding is one diagnostic resolved to a file position, after ignore
// filtering has classified it.
type Finding struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool   // true when a //blobseer:ignore waived it
	Reason     string // the ignore's justification, when suppressed
}

// Result is the outcome of running a set of analyzers over a set of
// packages.
type Result struct {
	Findings []Finding // every finding, suppressed or not, in file order
	Errors   []error   // analyzer or type-check failures
}

// Unsuppressed counts the findings that survived ignore filtering.
func (r *Result) Unsuppressed() int {
	n := 0
	for _, f := range r.Findings {
		if !f.Suppressed {
			n++
		}
	}
	return n
}

// Run applies every analyzer to every package, resolves positions and
// applies //blobseer:ignore suppression. Ignores match a finding when
// they name its analyzer and sit on the same line as the finding or the
// line directly above it, in the same file.
func Run(analyzers []*Analyzer, pkgs []*Package) *Result {
	res := &Result{}
	for _, pkg := range pkgs {
		res.Errors = append(res.Errors, pkg.Errors...)

		// file -> line -> ignores, from both checked and test files.
		ignores := make(map[string]map[int][]Ignore)
		allFiles := append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
		for _, f := range allFiles {
			for _, ig := range ParseIgnores(f) {
				p := pkg.Fset.Position(ig.Pos)
				if ignores[p.Filename] == nil {
					ignores[p.Filename] = make(map[int][]Ignore)
				}
				ignores[p.Filename][p.Line] = append(ignores[p.Filename][p.Line], ig)
				if ig.Reason == "" {
					res.Findings = append(res.Findings, Finding{
						Analyzer: "ignore",
						Pos:      p,
						Message:  "//blobseer:ignore without a reason: every suppression must say why",
					})
				}
			}
		}

		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				TestFiles: pkg.TestFiles,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.TypesInfo,
				PkgPath:   pkg.PkgPath,
				Dir:       pkg.Dir,
				ModPath:   pkg.ModPath,
			}
			pass.Report = func(d Diagnostic) {
				p := pkg.Fset.Position(d.Pos)
				f := Finding{Analyzer: a.Name, Pos: p, Message: d.Message}
				for _, ig := range ignoresNear(ignores, p) {
					if ig.Matches(a.Name) && ig.Reason != "" {
						f.Suppressed = true
						f.Reason = ig.Reason
						break
					}
				}
				res.Findings = append(res.Findings, f)
			}
			if err := a.Run(pass); err != nil {
				res.Errors = append(res.Errors, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err))
			}
		}
	}
	sort.SliceStable(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i].Pos, res.Findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return res
}

func ignoresNear(ignores map[string]map[int][]Ignore, p token.Position) []Ignore {
	byLine := ignores[p.Filename]
	if byLine == nil {
		return nil
	}
	return append(append([]Ignore{}, byLine[p.Line]...), byLine[p.Line-1]...)
}

// Print writes the human-readable report: unsuppressed findings first,
// then the suppression tally the ISSUE demands (silent waivers must not
// accumulate).
func (r *Result) Print(w io.Writer) {
	for _, f := range r.Findings {
		if f.Suppressed {
			continue
		}
		fmt.Fprintf(w, "%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
	}
	var suppressed []Finding
	for _, f := range r.Findings {
		if f.Suppressed {
			suppressed = append(suppressed, f)
		}
	}
	if len(suppressed) > 0 {
		fmt.Fprintf(w, "blobseer-vet: %d finding(s) suppressed by //blobseer:ignore:\n", len(suppressed))
		for _, f := range suppressed {
			fmt.Fprintf(w, "  %s: %s: %s (reason: %s)\n", f.Pos, f.Analyzer, f.Message, f.Reason)
		}
	}
	for _, err := range r.Errors {
		fmt.Fprintf(w, "blobseer-vet: error: %v\n", err)
	}
}
