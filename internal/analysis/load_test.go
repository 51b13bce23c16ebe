package analysis

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestLoadReadsOverlay: with an -overlay in GOFLAGS, Load parses and
// type-checks the file the overlay puts in place of one on disk — the
// replacement imports a package the file on disk does not — and
// without it, the file on disk.
func TestLoadReadsOverlay(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "overlaid"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	replacement := filepath.Join(tmp, "overlaid.go")
	src := "package overlaid\n\nimport \"strconv\"\n\nfunc Overlaid() string { return strconv.Itoa(2) }\n"
	if err := os.WriteFile(replacement, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ov, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(dir, "overlaid.go"): replacement}})
	if err != nil {
		t.Fatal(err)
	}
	ovPath := filepath.Join(tmp, "overlay.json")
	if err := os.WriteFile(ovPath, ov, 0o644); err != nil {
		t.Fatal(err)
	}

	load := func(want, gone string) {
		t.Helper()
		pkgs, err := Load(dir, ".")
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
			t.Fatalf("loaded %d packages, want 1 of 1 file", len(pkgs))
		}
		p := pkgs[0]
		for _, err := range p.Errors {
			t.Errorf("type-check: %v", err)
		}
		if p.Files[0].Scope.Lookup(want) == nil || p.Pkg.Scope().Lookup(want) == nil {
			t.Errorf("%s is not declared in the loaded file", want)
		}
		if p.Pkg.Scope().Lookup(gone) != nil {
			t.Errorf("%s is declared in the loaded file", gone)
		}
		if name := p.Fset.File(p.Files[0].Pos()).Name(); name != filepath.Join(dir, "overlaid.go") {
			t.Errorf("loaded file is named %s, want the path on disk", name)
		}
	}
	t.Setenv("GOFLAGS", "-overlay="+ovPath)
	load("Overlaid", "OnDisk")
	t.Setenv("GOFLAGS", "")
	load("OnDisk", "Overlaid")
}
