// Package wirekinds checks that the wire Kind enum stays append-only
// and fully wired.
//
// Mixed-version clusters survive upgrades only because every Kind value
// ever shipped keeps meaning the same message forever — the iota block
// in internal/wire is append-only by convention. This analyzer turns
// the convention into a gate against a golden registry file
// (kinds.golden in the package directory, one "value name" line per
// kind):
//
//   - every registered kind must still exist with its registered value
//     (no renames, renumbers or deletions);
//   - every kind in the source must be registered (adding a kind forces
//     a deliberate registry append, which a reviewer sees as an
//     append-only diff);
//   - every kind must have an entry with a constructor in kindTable, or
//     decoding that code off the network fails;
//   - every kind's message type must appear in some Fuzz* target, so
//     the decoder actually faces adversarial bytes for it.
//
// A registry line "value name retired" marks a kind no process sends
// any more. Its constant stays, so its number is never reused; it must
// have no constructor, so it decodes as an unknown kind; and it needs
// no fuzz seed.
//
// The sentinel values KindInvalid and kindMax are exempt.
package wirekinds

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"blobseer/internal/analysis"
)

// Analyzer is the wirekinds analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "wirekinds",
	Doc:  "check the wire Kind enum against its append-only golden registry, decode dispatch and fuzz seeds",
	Run:  run,
}

// GoldenName is the registry file looked up in the package directory.
const GoldenName = "kinds.golden"

type kindConst struct {
	name  string
	value int64
	pos   token.Pos
}

// registered is one kinds.golden line.
type registered struct {
	value   int64
	retired bool
}

func run(pass *analysis.Pass) error {
	kinds := enumKinds(pass)
	if kinds == nil {
		return nil // package declares no Kind enum
	}

	goldenPath := filepath.Join(pass.Dir, GoldenName)
	golden, err := readGolden(goldenPath)
	if os.IsNotExist(err) {
		pass.Reportf(kinds[0].pos, "Kind enum has no %s registry; create it with one \"value name\" line per kind", GoldenName)
		return nil
	} else if err != nil {
		return err
	}

	byName := make(map[string]kindConst)
	for _, k := range kinds {
		byName[k.name] = k
	}

	// Registered kinds must survive unchanged.
	maxGolden := int64(-1)
	for name, reg := range golden {
		if reg.value > maxGolden {
			maxGolden = reg.value
		}
		k, ok := byName[name]
		if !ok {
			pass.Reportf(kinds[0].pos,
				"kind %s (value %d) is registered in %s but missing from the enum: wire kinds are append-only and must never be deleted or renamed, not even retired ones",
				name, reg.value, GoldenName)
			continue
		}
		if k.value != reg.value {
			pass.Reportf(k.pos,
				"kind %s has value %d but %s registers %d: wire kind values are frozen forever",
				name, k.value, GoldenName, reg.value)
		}
	}
	// Unregistered kinds must be strict appends.
	for _, k := range kinds {
		if _, ok := golden[k.name]; ok {
			continue
		}
		if k.value <= maxGolden {
			pass.Reportf(k.pos,
				"new kind %s has value %d, not above the registry high-water mark %d: insertions renumber every later kind",
				k.name, k.value, maxGolden)
		}
		pass.Reportf(k.pos,
			"kind %s is not registered in %s; append \"%d %s\" to it",
			k.name, GoldenName, k.value, k.name)
	}

	checkDispatch(pass, kinds, golden)
	checkFuzzSeeds(pass, kinds, golden)
	return nil
}

// enumKinds extracts the Kind iota block: every package-level constant
// of type Kind, excluding the KindInvalid/kindMax sentinels. Returns nil
// when the package has no Kind type.
func enumKinds(pass *analysis.Pass) []kindConst {
	obj := pass.Pkg.Scope().Lookup("Kind")
	if obj == nil {
		return nil
	}
	if _, ok := obj.(*types.TypeName); !ok {
		return nil
	}
	kindType := obj.Type()
	var out []kindConst
	for _, name := range pass.Pkg.Scope().Names() {
		c, ok := pass.Pkg.Scope().Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), kindType) {
			continue
		}
		if name == "KindInvalid" || name == "kindMax" {
			continue
		}
		v, ok := constant.Int64Val(c.Val())
		if !ok {
			continue
		}
		out = append(out, kindConst{name: name, value: v, pos: c.Pos()})
	}
	if len(out) == 0 {
		return nil
	}
	// Sort by value for stable reporting.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].value > out[j].value; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func readGolden(path string) (map[string]registered, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]registered)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 && (len(fields) != 3 || fields[2] != "retired") {
			return nil, fmt.Errorf("%s:%d: want \"value name\" or \"value name retired\", got %q", path, line, text)
		}
		v, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad value %q", path, line, fields[0])
		}
		out[fields[1]] = registered{value: v, retired: len(fields) == 3}
	}
	return out, sc.Err()
}

// checkDispatch requires a kindTable entry with a constructor for every
// kind that is not retired, and none for every kind that is.
func checkDispatch(pass *analysis.Pass, kinds []kindConst, golden map[string]registered) {
	table := kindTable(pass)
	if table == nil {
		return
	}
	constructible := make(map[string]bool)
	for _, e := range table.Elts {
		kv, ok := e.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		kind, isIdent := kv.Key.(*ast.Ident)
		entry, isLit := kv.Value.(*ast.CompositeLit)
		if isIdent && isLit && constructor(entry) != nil {
			constructible[kind.Name] = true
		}
	}
	for _, k := range kinds {
		switch retired := golden[k.name].retired; {
		case retired && constructible[k.name]:
			pass.Reportf(k.pos, "retired kind %s has a constructor in kindTable: a retired number is never reused", k.name)
		case !retired && !constructible[k.name]:
			pass.Reportf(k.pos, "kind %s has no constructor in kindTable: messages of this kind cannot be decoded off the wire", k.name)
		}
	}
}

// constructor returns what a kindTable entry gives its new field —
// positional in `{"X", ctor}`, keyed in `{name: "X", new: ctor}` — or
// nil when it gives none or a literal nil.
func constructor(entry *ast.CompositeLit) ast.Expr {
	var ctor ast.Expr
	for i, f := range entry.Elts {
		if kv, keyed := f.(*ast.KeyValueExpr); !keyed {
			if i == 1 {
				ctor = f
			}
		} else if name, ok := kv.Key.(*ast.Ident); ok && name.Name == "new" {
			ctor = kv.Value
		}
	}
	if id, ok := ctor.(*ast.Ident); ok && id.Name == "nil" {
		return nil
	}
	return ctor
}

// kindTable returns the literal of the package-level kindTable
// variable, the one place a kind's name and constructor are declared,
// or nil when the package has none.
func kindTable(pass *analysis.Pass) *ast.CompositeLit {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if len(vs.Names) == 1 && vs.Names[0].Name == "kindTable" && len(vs.Values) == 1 {
					lit, _ := vs.Values[0].(*ast.CompositeLit)
					return lit
				}
			}
		}
	}
	return nil
}

// checkFuzzSeeds requires the message type of every kind that is not
// retired to appear inside some Fuzz* function body, as evidence the
// decoder is fuzzed with a populated seed of that type.
func checkFuzzSeeds(pass *analysis.Pass, kinds []kindConst, golden map[string]registered) {
	fuzzed := make(map[string]bool)
	for _, f := range pass.TestFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					fuzzed[id.Name] = true
				}
				return true
			})
		}
	}
	for _, k := range kinds {
		typ := strings.TrimPrefix(k.name, "Kind")
		if !golden[k.name].retired && !fuzzed[typ] {
			pass.Reportf(k.pos,
				"kind %s has no fuzz seed: no Fuzz* target mentions %s, so its decoder never faces adversarial bytes",
				k.name, typ)
		}
	}
}
