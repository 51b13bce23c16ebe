// Package lockorder checks mutex acquisition against the order declared
// by //blobseer:lockorder annotations.
//
// The page store, the version manager and the DHT node log each
// document a strict lock order in prose; every deadlock-freedom
// argument in their maintenance loops leans on it. This analyzer makes
// the order machine-readable and machine-checked: an annotation like
//
//	//blobseer:lockorder maintMu < wmu < segMu
//
// declares that maintMu is always acquired before wmu, and so on.
// Tokens name mutex fields, either bare ("maintMu" — that field on any
// type) or type-qualified ("segment.mu"). Multiple annotations in a
// package union into one partial order.
//
// Two rules are enforced, per function, over a source-order scan that
// tracks the held set through Lock/RLock/Unlock/RUnlock (a deferred
// unlock keeps the lock held to function end):
//
//  1. Order: acquiring A while holding B is a finding when the declared
//     order says A < B.
//  2. Re-entry: acquiring a token already held is a finding — Go
//     mutexes are not reentrant, and even the "different instance, same
//     field" cases (lineage-ancestor shard locks) deserve an explicit,
//     justified //blobseer:ignore at the site.
//
// The check is interprocedural within the package: each function gets a
// transitive may-acquire summary over the typed call graph
// (analysis.LocalCallees), so a helper that takes segMu is flagged when
// called under a stripe lock.
package lockorder

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"

	"blobseer/internal/analysis"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "check mutex acquisition against declared //blobseer:lockorder annotations",
	Run:  run,
}

var lockMethods = map[string]bool{"Lock": true, "RLock": true, "TryLock": true, "TryRLock": true}
var unlockMethods = map[string]bool{"Unlock": true, "RUnlock": true}

// order is the declared partial order: before[a][b] means a must be
// acquired before b (a is the outer lock).
type order struct {
	tokens []string
	before map[string]map[string]bool
}

func parseOrder(pass *analysis.Pass) (*order, error) {
	o := &order{before: make(map[string]map[string]bool)}
	seen := make(map[string]bool)
	addTok := func(t string) {
		if !seen[t] {
			seen[t] = true
			o.tokens = append(o.tokens, t)
		}
	}
	for _, f := range pass.Files {
		for _, d := range analysis.Directives(f) {
			if d.Verb != "lockorder" {
				continue
			}
			var chain []string
			for _, tok := range strings.Split(d.Args, "<") {
				tok = strings.TrimSpace(tok)
				if tok == "" {
					return nil, fmt.Errorf("%s: malformed //blobseer:lockorder %q",
						pass.Fset.Position(d.Pos), d.Args)
				}
				chain = append(chain, tok)
				addTok(tok)
			}
			for i := 0; i < len(chain); i++ {
				for j := i + 1; j < len(chain); j++ {
					if o.before[chain[i]] == nil {
						o.before[chain[i]] = make(map[string]bool)
					}
					o.before[chain[i]][chain[j]] = true
				}
			}
		}
	}
	// Transitive closure across annotations (chains may share tokens).
	for changed := true; changed; {
		changed = false
		for a, bs := range o.before {
			for b := range bs {
				for c := range o.before[b] {
					if !o.before[a][c] {
						o.before[a][c] = true
						changed = true
					}
				}
			}
		}
	}
	return o, nil
}

// match resolves a lock event on field fieldName of type typeName to a
// declared token, preferring the qualified form.
func (o *order) match(typeName, fieldName string) (string, bool) {
	if typeName != "" {
		q := typeName + "." + fieldName
		for _, t := range o.tokens {
			if t == q {
				return t, true
			}
		}
	}
	for _, t := range o.tokens {
		if t == fieldName {
			return t, true
		}
	}
	return "", false
}

// event is one lock operation in source order.
type event struct {
	call     *ast.CallExpr
	token    string
	acquire  bool
	deferred bool
}

// callSite is a call to same-package functions (each implementation of
// an interface method), interleaved with lock events in source order.
type callSite struct {
	call    *ast.CallExpr
	callees []string
}

type step struct {
	ev *event
	cs *callSite
}

// scan extracts lock events and package-local call sites from a body in
// source order.
func scan(pass *analysis.Pass, o *order, body ast.Node) []step {
	var steps []step
	inDefer := 0
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				inDefer++
				walk(n.Call)
				inDefer--
				return false
			case *ast.FuncLit:
				// Closures run at an unknown time; skip their bodies.
				return false
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					name := sel.Sel.Name
					if lockMethods[name] || unlockMethods[name] {
						typeName, fieldName := mutexOperand(pass, sel.X)
						if fieldName != "" {
							if tok, ok := o.match(typeName, fieldName); ok {
								steps = append(steps, step{ev: &event{
									call: n, token: tok,
									acquire:  lockMethods[name],
									deferred: inDefer > 0,
								}})
							}
						}
						return true
					}
				}
				if callees := analysis.LocalCallees(pass.TypesInfo, pass.Pkg, n); callees != nil {
					steps = append(steps, step{cs: &callSite{call: n, callees: callees}})
				}
			}
			return true
		})
	}
	walk(body)
	return steps
}

// mutexOperand names the mutex an x.Lock() call operates on: for
// s.wmu.Lock() it returns ("KV", "wmu"); for a bare
// mu.Lock() it returns ("", "mu").
func mutexOperand(pass *analysis.Pass, x ast.Expr) (typeName, fieldName string) {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		return analysis.ReceiverTypeName(pass.TypesInfo, x.X), x.Sel.Name
	case *ast.Ident:
		return "", x.Name
	}
	return "", ""
}

// summaries computes, for every function key, the set of tokens the
// function may transitively acquire (deferred acquires included — they
// still take the lock).
func summaries(pass *analysis.Pass, o *order, funcs map[string][]*ast.FuncDecl) map[string]map[string]bool {
	direct := make(map[string]map[string]bool)
	callees := make(map[string]map[string]bool)
	for name, decls := range funcs {
		direct[name] = make(map[string]bool)
		callees[name] = make(map[string]bool)
		for _, fd := range decls {
			if fd.Body == nil {
				continue
			}
			for _, st := range scan(pass, o, fd.Body) {
				if st.ev != nil && st.ev.acquire {
					direct[name][st.ev.token] = true
				}
				if st.cs != nil {
					for _, c := range st.cs.callees {
						callees[name][c] = true
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for name := range funcs {
			for callee := range callees[name] {
				for tok := range direct[callee] {
					if !direct[name][tok] {
						direct[name][tok] = true
						changed = true
					}
				}
			}
		}
	}
	return direct
}

func run(pass *analysis.Pass) error {
	o, err := parseOrder(pass)
	if err != nil {
		return err
	}
	if len(o.tokens) == 0 {
		return nil // package declares no lock order
	}
	funcs := analysis.PackageFuncs(pass.Files, pass.TypesInfo)
	sums := summaries(pass, o, funcs)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := make(map[string]int)
			for _, st := range scan(pass, o, fd.Body) {
				switch {
				case st.ev != nil && st.ev.acquire:
					ev := st.ev
					if held[ev.token] > 0 {
						pass.Reportf(ev.call.Pos(),
							"%s acquired while already held (mutexes are not reentrant; if this is a provably distinct instance, justify with //blobseer:ignore)",
							ev.token)
					}
					for _, h := range heldTokens(held) {
						if o.before[ev.token][h] {
							pass.Reportf(ev.call.Pos(),
								"acquires %s while holding %s; declared order is %s < %s",
								ev.token, h, ev.token, h)
						}
					}
					held[ev.token]++
				case st.ev != nil && !st.ev.acquire:
					if !st.ev.deferred && held[st.ev.token] > 0 {
						held[st.ev.token]--
					}
					// A deferred unlock keeps the token held through
					// the rest of the scan: that is the point.
				case st.cs != nil:
					name, may := analysis.CalleeName(st.cs.call), make(map[string]int)
					for _, c := range st.cs.callees {
						for tok := range sums[c] {
							may[tok] = 1
						}
					}
					for _, tok := range heldTokens(may) {
						if held[tok] > 0 {
							pass.Reportf(st.cs.call.Pos(),
								"call to %s may re-acquire %s which is already held",
								name, tok)
							continue
						}
						for _, h := range heldTokens(held) {
							if o.before[tok][h] {
								pass.Reportf(st.cs.call.Pos(),
									"call to %s may acquire %s while %s is held; declared order is %s < %s",
									name, tok, h, tok, h)
							}
						}
					}
				}
			}
		}
	}
	return nil
}

func heldTokens(held map[string]int) []string {
	var out []string
	for t, n := range held {
		if n > 0 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}
