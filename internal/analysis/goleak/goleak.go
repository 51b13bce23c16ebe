// Package goleak enforces the repository's goroutine-lifecycle
// discipline: every spawn in a long-lived component must be provably
// joined, so Close really means "all background work has stopped" and a
// dead peer cannot strand a goroutine forever.
//
// A spawn is a `go` statement or a call to a vclock spawn method
// (Scheduler.Go, (*Real).Go, (*Virtual).Go, (*WaitGroup).Go). The
// analyzer resolves the spawned body — function literal, local
// function/method reference, or a func-typed field (indexed or not)
// through every literal or local function the package stores in it,
// extended transitively over the package's name-based call graph — and
// accepts any of these join proofs:
//
//  1. WaitGroup: the body calls tok.Done() and the package calls both
//     tok.Add(...) and tok.Wait(...) on the same terminal token
//     (sync.WaitGroup and vclock.WaitGroup both fit).
//
//  2. Quit channel: the body receives from <-tok and the package calls
//     close(tok) — the shutdown-broadcast idiom.
//
//  3. Completion channel: the body closes or sends on tok and the
//     spawning function receives from <-tok.
//
//  4. Event handshake: the body calls tok.Fire(...) and the spawning
//     function calls tok.Wait(...) — the vclock.Event idiom.
//
//  5. A deliberate leak is annotated on the spawn line or the line
//     directly above:
//
//     //blobseer:goroutine detached <reason>
//
// A spawn through (*vclock.WaitGroup).Go is held to a sharper rule: the
// package must call Wait on the same WaitGroup token, because that
// type's whole point is the join. Tokens are terminal selector names
// ("wg" for both s.wg and c.pool.wg), which over-approximates across
// values sharing a field name — the usual trade: a spurious match costs
// a missed leak only if two same-named groups exist and exactly one is
// joined, while the name-precision alternative costs constant false
// positives on ordinary code.
//
// Package main is exempt (a process's goroutines die with it), as are
// test files (the loader never type-checks them and tests join through
// t.Cleanup conventions instead).
package goleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"blobseer/internal/analysis"
)

// Analyzer is the goleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc:  "every goroutine spawned in a long-lived component must be provably joined (WaitGroup, quit channel, completion handshake) or annotated //blobseer:goroutine detached <reason>",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == "main" {
		return nil // a process's goroutines die with the process
	}
	ann := collectAnnotations(pass)
	pkgFuncs := analysis.PackageFuncs(pass.Files, nil)
	pkg := packageTokens(pass.Files)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd, pkgFuncs, pkg, ann)
			}
		}
	}
	return nil
}

// annotations maps file -> line for well-formed
// //blobseer:goroutine detached <reason> directives. Malformed ones are
// reported and suppress nothing.
type annotations map[string]map[int]bool

func collectAnnotations(pass *analysis.Pass) annotations {
	ann := make(annotations)
	for _, f := range pass.Files {
		for _, d := range analysis.Directives(f) {
			if d.Verb != "goroutine" {
				continue
			}
			mode, reason, _ := strings.Cut(d.Args, " ")
			if mode != "detached" || strings.TrimSpace(reason) == "" {
				pass.Reportf(d.Pos, "malformed //blobseer:goroutine directive: write //blobseer:goroutine detached <reason>")
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

func (ann annotations) detached(pass *analysis.Pass, pos token.Pos) bool {
	p := pass.Fset.Position(pos)
	lines := ann[p.Filename]
	return lines != nil && (lines[p.Line] || lines[p.Line-1])
}

// scope collects the join evidence the patterns match against, from
// one body, one enclosing function, or the whole package.
type scope struct {
	done, fire, wait, add map[string]bool // tok.<Method>() calls
	closes                map[string]bool // close(tok)
	sends                 map[string]bool // tok <- v
	recvs                 map[string]bool // <-tok
}

func newScope() *scope {
	return &scope{
		done: map[string]bool{}, fire: map[string]bool{},
		wait: map[string]bool{}, add: map[string]bool{},
		closes: map[string]bool{}, sends: map[string]bool{}, recvs: map[string]bool{},
	}
}

func (s *scope) collect(nodes ...ast.Node) *scope {
	for _, n := range nodes {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					if tok := terminal(n.Args[0]); tok != "" {
						s.closes[tok] = true
					}
					break
				}
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				tok := terminal(sel.X)
				if tok == "" {
					break
				}
				switch sel.Sel.Name {
				case "Done":
					s.done[tok] = true
				case "Fire":
					s.fire[tok] = true
				case "Wait":
					s.wait[tok] = true
				case "Add":
					s.add[tok] = true
				}
			case *ast.SendStmt:
				if tok := terminal(n.Chan); tok != "" {
					s.sends[tok] = true
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if tok := terminal(n.X); tok != "" {
						s.recvs[tok] = true
					}
				}
			}
			return true
		})
	}
	return s
}

// packageTokens gathers the package-wide evidence (Add/Wait/close may
// live in a different function than the spawn — typically Close).
func packageTokens(files []*ast.File) *scope {
	s := newScope()
	for _, f := range files {
		s.collect(f)
	}
	return s
}

// terminal reduces an expression to its terminal token: the field or
// variable name that identifies the synchronization object regardless
// of access path (c.wg -> "wg", evs[i] -> "evs", (&x).q -> "q").
func terminal(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return ""
		}
	}
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, pkgFuncs map[string][]*ast.FuncDecl, pkg *scope, ann annotations) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			checkSpawn(pass, fd, n.Pos(), n.Call.Fun, pkgFuncs, pkg, ann)
		case *ast.CallExpr:
			sel, kind := vclockGo(pass, n)
			switch kind {
			case spawnNone:
			case spawnWaitGroup:
				checkWaitGroupSpawn(pass, n.Pos(), sel, pkg, ann)
			case spawnSched:
				if len(n.Args) == 1 {
					checkSpawn(pass, fd, n.Pos(), n.Args[0], pkgFuncs, pkg, ann)
				}
			}
		}
		return true
	})
}

type spawnKind int

const (
	spawnNone spawnKind = iota
	spawnSched
	spawnWaitGroup
)

// vclockGo classifies a call as one of the vclock spawn entry points:
// any method named Go declared in <module>/internal/vclock. A
// WaitGroup receiver selects the sharper must-Wait rule.
func vclockGo(pass *analysis.Pass, call *ast.CallExpr) (*ast.SelectorExpr, spawnKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Go" {
		return nil, spawnNone
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pass.ModPath+"/internal/vclock" {
		return nil, spawnNone
	}
	if analysis.ReceiverTypeName(pass.TypesInfo, sel.X) == "WaitGroup" {
		return sel, spawnWaitGroup
	}
	return sel, spawnSched
}

// checkWaitGroupSpawn: a (*vclock.WaitGroup).Go spawn is joined iff the
// package calls Wait on the same WaitGroup token.
func checkWaitGroupSpawn(pass *analysis.Pass, pos token.Pos, sel *ast.SelectorExpr, pkg *scope, ann annotations) {
	tok := terminal(sel.X)
	if tok != "" && pkg.wait[tok] {
		return
	}
	if ann.detached(pass, pos) {
		return
	}
	pass.Reportf(pos,
		"vclock.WaitGroup spawn is never joined: no %s.Wait(...) call in this package (annotate //blobseer:goroutine detached <reason> if the leak is deliberate)",
		tok)
}

// checkSpawn applies the join patterns to a regular spawn (go statement
// or scheduler Go).
func checkSpawn(pass *analysis.Pass, fd *ast.FuncDecl, pos token.Pos, fun ast.Expr, pkgFuncs map[string][]*ast.FuncDecl, pkg *scope, ann annotations) {
	if ann.detached(pass, pos) {
		return
	}
	body := newScope()
	var roots []string
	switch f := fun.(type) {
	case *ast.FuncLit:
		body.collect(f.Body)
		roots = analysis.Callees(f.Body)
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		if roots = spawnedFuncs(pass, f, pkgFuncs, body); len(roots) > 0 {
			break
		}
		reportLeak(pass, pos, "spawned function cannot be resolved to a local declaration")
		return
	default:
		reportLeak(pass, pos, "spawned function cannot be resolved to a local declaration")
		return
	}

	// Extend the body over everything it can reach inside the package:
	// the Done/close/Fire that proves the join may live a few calls in.
	for name := range analysis.Reachable(pkgFuncs, roots) {
		for _, decl := range pkgFuncs[name] {
			if decl.Body != nil {
				body.collect(decl.Body)
			}
		}
	}

	// The spawning function holds the other half of patterns 3 and 4.
	encl := newScope().collect(fd.Body)

	for tok := range body.done { // pattern 1: WaitGroup
		if pkg.add[tok] && pkg.wait[tok] {
			return
		}
	}
	for tok := range body.recvs { // pattern 2: quit channel
		if pkg.closes[tok] {
			return
		}
	}
	for tok := range body.closes { // pattern 3: completion channel
		if encl.recvs[tok] {
			return
		}
	}
	for tok := range body.sends {
		if encl.recvs[tok] {
			return
		}
	}
	for tok := range body.fire { // pattern 4: event handshake
		if encl.wait[tok] {
			return
		}
	}
	reportLeak(pass, pos, "no join evidence found")
}

// spawnedFuncs resolves a spawned name to the package functions it
// runs: a function or method of the package, or each one the package
// assigns or appends to the func-typed field the name is (indexed or
// not), a literal's body collected into body.
func spawnedFuncs(pass *analysis.Pass, fun ast.Expr, pkgFuncs map[string][]*ast.FuncDecl, body *scope) (roots []string) {
	obj := usedObj(pass, fun)
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() == pass.Pkg && pkgFuncs[fn.Name()] != nil {
		return []string{fn.Name()}
	}
	if v, ok := obj.(*types.Var); !ok || !v.IsField() {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			for i := 0; ok && len(as.Lhs) == len(as.Rhs) && i < len(as.Lhs); i++ {
				if usedObj(pass, as.Lhs[i]) != obj {
					continue
				}
				vals := []ast.Expr{as.Rhs[i]}
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
					vals = call.Args // append(field, funcs...)
				}
				for _, v := range vals {
					if lit, ok := v.(*ast.FuncLit); ok {
						body.collect(lit.Body)
						roots = append(roots, analysis.Callees(lit.Body)...)
					} else if fn, ok := usedObj(pass, v).(*types.Func); ok && fn.Pkg() == pass.Pkg {
						roots = append(roots, fn.Name())
					}
				}
			}
			return true
		})
	}
	return roots
}

// usedObj is the object e names, through a selector or an index.
func usedObj(pass *analysis.Pass, e ast.Expr) types.Object {
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	id, _ := e.(*ast.Ident)
	return pass.TypesInfo.Uses[id]
}

func reportLeak(pass *analysis.Pass, pos token.Pos, why string) {
	pass.Reportf(pos,
		"goroutine spawned here is not provably joined (%s): use a WaitGroup with Wait on Close, a quit/completion channel, or annotate //blobseer:goroutine detached <reason>",
		why)
}
