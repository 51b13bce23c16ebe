package suite_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blobseer/internal/analysis"
	"blobseer/internal/analysis/suite"
)

// TestRepoIsClean is the in-process equivalent of the CI gate: the full
// analyzer suite over the whole module must produce zero unsuppressed
// findings, and every suppression must carry a reason. It fails the
// moment someone introduces a violation — or a bare ignore — anywhere
// in the tree.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped with -short")
	}
	root := moduleRoot(t)
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	res := analysis.Run(suite.Analyzers, pkgs)
	for _, err := range res.Errors {
		t.Errorf("error: %v", err)
	}
	for _, f := range res.Findings {
		if f.Suppressed {
			t.Logf("suppressed: %s: %s: %s (reason: %s)", f.Pos, f.Analyzer, f.Message, f.Reason)
			continue
		}
		t.Errorf("finding: %s: %s: %s", f.Pos, f.Analyzer, f.Message)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestSuiteComplete pins the analyzer roster: dropping a check from the
// suite must not pass silently.
func TestSuiteComplete(t *testing.T) {
	want := []string{"lockorder", "encdecpair", "ctxflow", "goleak"}
	var got []string
	for _, a := range suite.Analyzers {
		got = append(got, a.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("suite.Analyzers = %v, want %v", got, want)
	}
}
