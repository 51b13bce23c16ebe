package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var mutants = flag.Bool("mutants", false, "run the planted bugs of testdata/mutants.txt against the tests that must catch them")

// mutantSeeds is how many seeds TestHistoryUnderFaults runs per mutant.
const mutantSeeds = 64

// mutant is one planted bug: the one occurrence of old in file (a path
// from the module root) becomes new, and test, run in pkg, must fail.
type mutant struct {
	name, file, pkg, test, story string
	old, new                     string
}

// TestMutants plants each bug of testdata/mutants.txt in turn — through
// go test -overlay, so the tree is never touched — runs the test that
// must catch it and holds what it caught to testdata/mutants.golden: a
// history checker's count of failing seeds, or whether a plain test
// failed. A checker or a test that gets weaker moves a line; -update
// rewrites the file. Without -mutants it only checks that every entry
// still plants: each builds and runs a test binary of its own.
func TestMutants(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := parseMutants(filepath.Join("testdata", "mutants.txt"))
	if err != nil {
		t.Fatal(err)
	}
	planted := make([][]byte, len(ms))
	for i, m := range ms {
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(src, []byte(m.old)); n != 1 {
			t.Fatalf("%s: old text occurs %d times in %s, want 1", m.name, n, m.file)
		}
		planted[i] = bytes.Replace(src, []byte(m.old), []byte(m.new), 1)
	}
	if !*mutants {
		t.Skip("run with -mutants")
	}
	var got strings.Builder
	for i, m := range ms {
		res := m.run(t, root, planted[i])
		t.Logf("%s: %s (%s)", m.name, res, m.story)
		fmt.Fprintf(&got, "%s %s %s\n", m.name, m.test, res)
	}
	path := filepath.Join("testdata", "mutants.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("%s moved (go test -run '^TestMutants$' -mutants -update rewrites it)\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

// run plants m — src is its file with the bug in — and reports what its test made of it: "k/n" seeds failed
// for the history checker, else "caught" (the test failed, or crashed
// its binary) or "not caught" — or "not run" when the test never
// started (the mutant does not build).
func (m *mutant) run(t *testing.T, root string, src []byte) string {
	dir := t.TempDir()
	planted := filepath.Join(dir, filepath.Base(m.file))
	if err := os.WriteFile(planted, src, 0o644); err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(root, m.file): planted}})
	if err != nil {
		t.Fatal(err)
	}
	overlayPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"test", "-overlay", overlayPath, "-json", "-count=1", "-timeout=20m", "-run", "^" + m.test + "$", m.pkg}
	history := m.test == "TestHistoryUnderFaults"
	if history {
		args = append(args, fmt.Sprintf("-history-seeds=%d", mutantSeeds))
	}
	cmd := exec.Command(goTool(), args...)
	cmd.Dir = root
	out, _ := cmd.Output() // a caught mutant fails the run
	var ran, passed, seeds, seedsFailed int
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		var ev struct{ Action, Test string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		top, sub, _ := strings.Cut(ev.Test, "/")
		if top != m.test {
			continue
		}
		switch {
		case ev.Action == "run" && sub == "":
			ran++
		case ev.Action == "pass" && sub == "":
			passed++
		case ev.Action != "pass" && ev.Action != "fail":
		case strings.HasPrefix(sub, "seed="):
			seeds++
			if ev.Action == "fail" {
				seedsFailed++
			}
		}
	}
	switch {
	case ran == 0:
		return "not run"
	case history:
		return fmt.Sprintf("%d/%d", seedsFailed, seeds)
	case passed > 0:
		return "not caught"
	}
	return "caught"
}

// goTool is the go command that runs this test.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}

// parseMutants reads the table: entries of "key value" lines — mutant
// (which starts one), file, test (a package and a test name) and story
// — and the old and new texts, each a line "old" or "new" followed by
// its lines, every one of them behind a "|". Blank lines and lines
// starting with "#" separate entries.
func parseMutants(path string) ([]*mutant, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms []*mutant
	var block *string
	for i, line := range strings.Split(string(data), "\n") {
		if text, ok := strings.CutPrefix(line, "|"); ok && block != nil {
			if *block != "" {
				*block += "\n"
			}
			*block += text
			continue
		}
		block = nil
		key, val, _ := strings.Cut(line, " ")
		if key == "mutant" {
			ms = append(ms, &mutant{name: val})
			continue
		}
		if key == "" || strings.HasPrefix(key, "#") {
			continue
		}
		if len(ms) == 0 {
			return nil, fmt.Errorf("%s:%d: %q before the first mutant", path, i+1, key)
		}
		m := ms[len(ms)-1]
		switch key {
		case "file":
			m.file = val
		case "test":
			m.pkg, m.test, _ = strings.Cut(val, " ")
		case "story":
			m.story = val
		case "old":
			block = &m.old
		case "new":
			block = &m.new
		default:
			return nil, fmt.Errorf("%s:%d: unknown key %q", path, i+1, key)
		}
	}
	for _, m := range ms {
		if m.file == "" || m.test == "" || m.old == "" || m.old == m.new {
			return nil, fmt.Errorf("%s: mutant %s is incomplete", path, m.name)
		}
	}
	return ms, nil
}
