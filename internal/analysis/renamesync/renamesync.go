// Package renamesync checks the tmp+fsync+rename durability contract.
//
// All three stores (page store, version WAL, DHT node log) promise the
// same crash-atomic publish sequence: write the full payload to a tmp
// file, fsync it, os.Rename it over the live name, then fsync the
// parent directory. A rename without the preceding file sync can
// publish a file whose contents are not yet on disk; without the
// trailing directory sync the rename itself may vanish on power loss.
// The crash-injection tests prove recovery at every fault point of the
// correct sequence — this analyzer makes sure nobody quietly ships an
// incorrect sequence the tests never enumerate.
//
// The rule fires on every os.Rename whose source operand is "tmp-ish"
// (its expression text contains "tmp", which all tmp-path helpers in
// this repo do: snapshotTmpPath, dhtCompactTmpPath, a local named tmp).
// Renames of already-durable files are deliberately out of scope. For an in-scope rename, the enclosing function must contain,
// in source order:
//
//   - before it: a (*os.File).Sync call, or a call to a same-package
//     function that may sync (conditional fsync helpers such as
//     writeSnapshotFile(..., fsync bool) count: the analyzer checks the
//     sequence exists, the option decides whether it executes);
//   - after it: a directory sync — a call to a function named syncDir,
//     or to a same-package function that may call one.
package renamesync

import (
	"go/ast"
	"strings"

	"blobseer/internal/analysis"
)

// Analyzer is the renamesync analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "renamesync",
	Doc:  "check that durable os.Rename calls are fsynced before and dir-synced after",
	Run:  run,
}

// op is one durability-relevant operation in source order.
type op struct {
	kind   opKind
	call   *ast.CallExpr
	srcTmp bool // for rename: source operand looks like a tmp path
}

type opKind int

const (
	opFileSync opKind = iota
	opRename
	opDirSync
)

func run(pass *analysis.Pass) error {
	funcs := analysis.PackageFuncs(pass.Files)
	syncers, dirSyncers := summarize(pass, funcs)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ops := collect(pass, fd.Body, syncers, dirSyncers)
			for i, o := range ops {
				if o.kind != opRename || !o.srcTmp {
					continue
				}
				synced, dirSynced := false, false
				for _, p := range ops[:i] {
					if p.kind == opFileSync {
						synced = true
					}
				}
				for _, p := range ops[i+1:] {
					if p.kind == opDirSync {
						dirSynced = true
					}
				}
				if !synced {
					pass.Reportf(o.call.Pos(),
						"os.Rename of a tmp file without a preceding File.Sync: the published file may not be on disk after a crash")
				}
				if !dirSynced {
					pass.Reportf(o.call.Pos(),
						"os.Rename of a tmp file without a following directory sync: the rename itself may not survive a crash")
				}
			}
		}
	}
	return nil
}

// summarize computes which same-package functions may fsync a file and
// which may sync a directory, transitively over the name-based call
// graph.
func summarize(pass *analysis.Pass, funcs map[string][]*ast.FuncDecl) (syncers, dirSyncers map[string]bool) {
	syncers = make(map[string]bool)
	dirSyncers = make(map[string]bool)
	callees := make(map[string][]string)
	for name, decls := range funcs {
		if isDirSyncName(name) {
			dirSyncers[name] = true
		}
		for _, fd := range decls {
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if analysis.IsOSFileSync(pass.TypesInfo, call) {
					syncers[name] = true
				}
				if c := analysis.LocalCalleeName(pass.TypesInfo, pass.Pkg, call); c != "" {
					if _, local := funcs[c]; local {
						callees[name] = append(callees[name], c)
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for name, cs := range callees {
			for _, c := range cs {
				if syncers[c] && !syncers[name] {
					syncers[name] = true
					changed = true
				}
				if dirSyncers[c] && !dirSyncers[name] {
					dirSyncers[name] = true
					changed = true
				}
			}
		}
	}
	return syncers, dirSyncers
}

func isDirSyncName(name string) bool {
	return strings.Contains(strings.ToLower(name), "syncdir")
}

// collect walks a body in source order, recording file syncs, renames
// and directory syncs, resolving same-package calls through the
// summaries.
func collect(pass *analysis.Pass, body ast.Node, syncers, dirSyncers map[string]bool) []op {
	var ops []op
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures run at unknown times
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case analysis.IsOSFileSync(pass.TypesInfo, call):
			ops = append(ops, op{kind: opFileSync, call: call})
		case analysis.IsPkgFunc(pass.TypesInfo, call, "os", "Rename"):
			srcTmp := false
			if len(call.Args) > 0 {
				srcTmp = exprLooksTmp(call.Args[0])
			}
			ops = append(ops, op{kind: opRename, call: call, srcTmp: srcTmp})
		default:
			name := analysis.LocalCalleeName(pass.TypesInfo, pass.Pkg, call)
			if name == "" {
				return true
			}
			if isDirSyncName(name) || dirSyncers[name] {
				ops = append(ops, op{kind: opDirSync, call: call})
			} else if syncers[name] {
				ops = append(ops, op{kind: opFileSync, call: call})
			}
		}
		return true
	})
	return ops
}

// exprLooksTmp reports whether the rename source names a temporary
// file: any identifier or call in the expression containing "tmp"
// (case-insensitive) qualifies.
func exprLooksTmp(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "tmp") {
				found = true
			}
		case *ast.BasicLit:
			if strings.Contains(strings.ToLower(n.Value), "tmp") {
				found = true
			}
		}
		return !found
	})
	return found
}
