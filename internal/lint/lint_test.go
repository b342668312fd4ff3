package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture golden file")

// fixtureAnalyzers is the suite configured for the fixmod mini-module:
// no goroutine-exempt packages.
func fixtureAnalyzers() []Analyzer {
	return []Analyzer{
		Determinism(),
		Hotpath(),
		NilGuard(),
	}
}

var fixtureOnce = sync.OnceValues(func() ([]Diagnostic, error) {
	mod, err := LoadModule(filepath.Join("testdata", "src", "fixmod"))
	if err != nil {
		return nil, err
	}
	return Run(mod, fixtureAnalyzers()), nil
})

func fixtureDiags(t *testing.T) []Diagnostic {
	t.Helper()
	diags, err := fixtureOnce()
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	return diags
}

func TestFixtureGolden(t *testing.T) {
	var b strings.Builder
	for _, d := range fixtureDiags(t) {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "golden", "fixmod.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("fixture diagnostics diverge from golden (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEachAnalyzerCatchesSeededViolation is the acceptance check that
// every analyzer fires on its seeded fixture violation.
func TestEachAnalyzerCatchesSeededViolation(t *testing.T) {
	counts := make(map[string]int)
	for _, d := range fixtureDiags(t) {
		counts[d.Analyzer]++
	}
	for _, a := range []string{"determinism", "hotpath", "nilguard"} {
		if counts[a] == 0 {
			t.Errorf("analyzer %s reported nothing on the seeded fixture", a)
		}
	}
	// The fault-package sim.RNG provenance rule: the seeded rand.New /
	// rand.NewSource / Intn uses in fault/fault.go — fine anywhere else —
	// must all be findings there.
	simRNG := 0
	for _, d := range fixtureDiags(t) {
		if d.File == "fault/fault.go" && strings.Contains(d.Message, "sim.RNG") {
			simRNG++
		}
	}
	if simRNG < 3 {
		t.Errorf("fault-package sim.RNG rule reported %d findings in fault/fault.go, want the 3 seeded rand uses", simRNG)
	}
}

// TestSuppressionHonored checks that the //piranha:allow in the fixture
// swallows the finding on the line below it.
func TestSuppressionHonored(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "src", "fixmod", "det", "det.go"))
	if err != nil {
		t.Fatal(err)
	}
	marker := 0
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "piranha:allow determinism fixture") {
			marker = i + 2 // 1-based line directly below the directive
		}
	}
	if marker == 0 {
		t.Fatal("suppression marker not found in fixture")
	}
	for _, d := range fixtureDiags(t) {
		if d.File == "det/det.go" && d.Line == marker {
			t.Errorf("suppressed diagnostic still reported: %s", d)
		}
	}
}

// TestCleanFixtureFunctionsSilent pins the negative cases: the
// collect-then-sort idiom, map self-mutation, the clean hot-path
// function, and the guarded recorder methods must produce nothing.
func TestCleanFixtureFunctionsSilent(t *testing.T) {
	mustBeSilent := func(file, fn string) {
		t.Helper()
		src, err := os.ReadFile(filepath.Join("testdata", "src", "fixmod", filepath.FromSlash(file)))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(src), "\n")
		start, end := 0, 0
		for i, line := range lines {
			if strings.HasPrefix(line, "func "+fn) || strings.Contains(line, ") "+fn+"(") {
				start = i + 1
				if strings.HasSuffix(line, "}") { // single-line function
					end = start
					break
				}
			}
			if start > 0 && line == "}" {
				end = i + 1
				break
			}
		}
		if start == 0 || end == 0 {
			t.Fatalf("function %s not found in %s", fn, file)
		}
		for _, d := range fixtureDiags(t) {
			if d.File == file && d.Line >= start && d.Line <= end {
				t.Errorf("clean function %s.%s produced %s", file, fn, d)
			}
		}
	}
	mustBeSilent("det/det.go", "SortedCollect")
	mustBeSilent("fault/fault.go", "Clean")
	mustBeSilent("det/det.go", "Mutate")
	mustBeSilent("hot/hot.go", "Clean")
	mustBeSilent("hot/hot.go", "Unannotated")
	mustBeSilent("nilg/nilg.go", "Good")
	mustBeSilent("nilg/nilg.go", "Enabled")
	mustBeSilent("nilg/nilg.go", "Both")
	mustBeSilent("nilg/nilg.go", "Loose")
}

// TestRepoClean is the self-test behind the CI gate: the repository's
// own tree must come out clean under the default analyzer suite.
func TestRepoClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(mod, DefaultAnalyzers()) {
		t.Errorf("repository not vet-clean: %s", d)
	}
}

// WriteJSON is the shared wire shape of piranha-vet -json and
// piranha-mc -json: deterministic, and an empty run is [] — never null.
func TestWriteJSON(t *testing.T) {
	var empty bytes.Buffer
	if err := WriteJSON(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(empty.String()); got != "[]" {
		t.Errorf("empty diagnostics encode as %q, want []", got)
	}

	diags := []Diagnostic{
		{File: "a.go", Line: 3, Analyzer: "determinism", Message: "m1"},
		{File: "b.go", Line: 9, Analyzer: "mcheck/stale-fill", Message: "m2"},
	}
	var x, y bytes.Buffer
	if err := WriteJSON(&x, diags); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&y, diags); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x.Bytes(), y.Bytes()) {
		t.Error("WriteJSON is nondeterministic")
	}
	for _, want := range []string{`"file": "a.go"`, `"line": 9`, `"analyzer": "mcheck/stale-fill"`, `"message": "m1"`} {
		if !strings.Contains(x.String(), want) {
			t.Errorf("encoded JSON missing %s:\n%s", want, x.String())
		}
	}
}
