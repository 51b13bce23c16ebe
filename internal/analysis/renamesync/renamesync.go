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
// A store that reaches its files through a file seam — interfaces its
// package declares, as internal/seglog's fileSystem and file — publishes
// through the seam's methods instead, and they count as what they stand
// for: a Rename called through such an interface as os.Rename, a Sync as
// (*os.File).Sync, a SyncDir as a directory sync.
//
// The rule fires on every rename whose source operand is "tmp-ish"
// (its expression text contains "tmp", which all tmp-path helpers in
// this repo do: SnapshotTmpPath, CompactTmpPath, a local named tmp).
// Renames of already-durable files are deliberately out of scope. For
// an in-scope rename, the enclosing function must contain, in source
// order:
//
//   - before it: a file sync, or a call to a same-package function that
//     may sync (conditional fsync helpers such as
//     writeSnapshotFile(..., fsync bool) count: the analyzer checks the
//     sequence exists, the option decides whether it executes);
//   - after it: a directory sync — a seam's SyncDir, a call to a
//     function named syncDir, or to a same-package function that may
//     call either.
package renamesync

import (
	"go/ast"
	"go/types"
	"strings"

	"blobseer/internal/analysis"
)

// Analyzer is the renamesync analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "renamesync",
	Doc:  "check that durable renames (os.Rename, or a file seam's Rename) are fsynced before and dir-synced after",
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
	funcs := analysis.PackageFuncs(pass.Files, pass.TypesInfo)
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
						"rename of a tmp file without a preceding File.Sync: the published file may not be on disk after a crash")
				}
				if !dirSynced {
					pass.Reportf(o.call.Pos(),
						"rename of a tmp file without a following directory sync: the rename itself may not survive a crash")
				}
			}
		}
	}
	return nil
}

// seamMethod returns the name of the method call invokes through an
// interface the package declares, or "".
func seamMethod(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if n, ok := pass.TypesInfo.TypeOf(sel.X).(*types.Named); ok && n.Obj().Pkg() == pass.Pkg && types.IsInterface(n) {
		return sel.Sel.Name
	}
	return ""
}

// summarize computes which same-package functions may fsync a file and
// which may sync a directory, transitively over the typed call graph
// (analysis.LocalCallees), keyed by analysis.FuncKey.
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
				seam := seamMethod(pass, call)
				if analysis.IsOSFileSync(pass.TypesInfo, call) || seam == "Sync" {
					syncers[name] = true
				}
				if seam == "SyncDir" {
					dirSyncers[name] = true
				}
				callees[name] = append(callees[name], analysis.LocalCallees(pass.TypesInfo, pass.Pkg, call)...)
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
		seam := seamMethod(pass, call)
		switch {
		case analysis.IsOSFileSync(pass.TypesInfo, call) || seam == "Sync":
			ops = append(ops, op{kind: opFileSync, call: call})
		case seam == "SyncDir":
			ops = append(ops, op{kind: opDirSync, call: call})
		case analysis.IsPkgFunc(pass.TypesInfo, call, "os", "Rename") || seam == "Rename":
			srcTmp := false
			if len(call.Args) > 0 {
				srcTmp = exprLooksTmp(call.Args[0])
			}
			ops = append(ops, op{kind: opRename, call: call, srcTmp: srcTmp})
		default:
			dirSync, sync := false, false
			for _, c := range analysis.LocalCallees(pass.TypesInfo, pass.Pkg, call) {
				dirSync = dirSync || isDirSyncName(c) || dirSyncers[c]
				sync = sync || syncers[c]
			}
			if dirSync {
				ops = append(ops, op{kind: opDirSync, call: call})
			} else if sync {
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
