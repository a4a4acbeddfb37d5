package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"parsssp/internal/lint"
)

func TestDirectiveValidation(t *testing.T) {
	// Three broken directives: missing everything, unknown analyzer,
	// missing justification. Each is reported by the "directive"
	// pseudo-analyzer so suppressions cannot silently rot.
	src := `package sssp

//parssspvet:allow
func A() {}

//parssspvet:allow notananalyzer -- reason
func B() {}

//parssspvet:allow wgmisuse
func C() {}
`
	got := runFixture(t, map[string]string{"internal/sssp/d.go": src}, lint.WGMisuse)
	wantFindings(t, got, []string{
		"d.go:3:1 directive",
		"d.go:6:1 directive",
		"d.go:9:1 directive",
	})
}

func TestDirectiveOnlySuppressesNamedAnalyzer(t *testing.T) {
	// A nodeterminism allow must not silence a wgmisuse finding on the
	// same line.
	src := `package pool

import "sync"

func Bad() {
	var wg sync.WaitGroup
	go func() {
		//parssspvet:allow nodeterminism -- wrong analyzer on purpose
		wg.Add(1)
		wg.Wait()
	}()
}
`
	got := runFixture(t, map[string]string{"internal/pool/pool.go": src}, lint.WGMisuse)
	wantFindings(t, got, []string{"pool.go:9:3 wgmisuse"})
}

func TestAnalyzersRegistry(t *testing.T) {
	want := []string{
		"nodeterminism", "atomicmix", "transporterr", "wgmisuse", "planepurity",
		"collectiveorder", "poolsafety", "wiretaint",
	}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d: got %q, want %q", i, a.Name, want[i])
		}
		if lint.ByName(want[i]) != a {
			t.Errorf("ByName(%q) does not round-trip", want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run function", a.Name)
		}
	}
	if lint.ByName("nope") != nil {
		t.Error("ByName should return nil for unknown analyzers")
	}
}

func TestLoadModulePatterns(t *testing.T) {
	files := map[string]string{
		"a.go":                             "package parsssp\n",
		"internal/one/one.go":              "package one\n",
		"internal/two/two.go":              "package two\n",
		"internal/two/sub/s.go":            "package sub\n",
		"internal/two/testdata/ignored.go": "package ignored\n",
	}
	pkgs := loadFixture(t, files) // loads ./...
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := []string{"parsssp", "parsssp/internal/one", "parsssp/internal/two", "parsssp/internal/two/sub"}
	if strings.Join(paths, " ") != strings.Join(want, " ") {
		t.Errorf("loaded %v, want %v", paths, want)
	}
}

// TestLoadHonorsBuildConstraints: per-platform twins of a declaration
// load as go build would pick them (loadFixture fails on the type error
// a collision would be), and a constrained-out package is skipped.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	files := map[string]string{
		"internal/one/f_yes.go":  "//go:build !parssspvet_never\n\npackage one\n\nfunc f() int { return 1 }\n",
		"internal/one/f_no.go":   "//go:build parssspvet_never\n\npackage one\n\nfunc f() int { return 2 }\n",
		"internal/two/plan9x.go": "//go:build parssspvet_never\n\npackage two\n",
	}
	pkgs := loadFixture(t, files)
	if len(pkgs) != 1 || pkgs[0].Path != "parsssp/internal/one" {
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		t.Errorf("loaded %v, want [parsssp/internal/one]", paths)
	}
}

// TestRepositoryIsClean runs the full suite over the real module — the
// same gate CI applies via cmd/parssspvet: findings are filtered through
// the committed baseline, anything beyond it fails, stale suppression
// directives fail, and stale baseline entries fail so the ratchet only
// moves one way.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	mod, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := mod.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Fatalf("package %s does not type-check: %v", p.Path, e)
		}
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern expansion is broken", len(pkgs))
	}
	res := lint.Run(pkgs, lint.Analyzers(), lint.RunOptions{})
	baseline, err := lint.LoadBaseline(filepath.Join(mod.Root, "lint.baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	rel := func(filename string) string {
		if r, err := filepath.Rel(mod.Root, filename); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return filepath.ToSlash(filename)
	}
	fresh, stale := lint.ApplyBaseline(baseline, res.Findings, rel)
	for _, f := range fresh {
		t.Errorf("finding beyond baseline: %s", f)
	}
	for _, e := range stale {
		t.Errorf("stale baseline entry (%s %s %q): now matches %d finding(s); ratchet lint.baseline.json down",
			e.Analyzer, e.File, e.Message, e.Count)
	}
	for _, u := range res.UnusedAllows {
		t.Errorf("stale suppression %s:%d:%d: //parssspvet:allow %s suppresses nothing; delete it",
			rel(u.Pos.Filename), u.Pos.Line, u.Pos.Column, u.Analyzer)
	}
}
