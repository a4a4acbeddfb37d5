package lint

// The loader turns "./..."-style patterns into fully type-checked
// packages using only the standard library. Module-local packages are
// parsed and type-checked here, in import-dependency order; imports that
// leave the module (the standard library) are delegated to go/importer's
// from-source importer, which needs no pre-compiled export data and no
// network access.
//
// Test files (*_test.go) are deliberately excluded: external test
// packages would need a second type-checking universe per directory, and
// the invariants parssspvet enforces concern the shipped runtime, not the
// test harnesses. Files are selected as go build selects them for the
// host platform (build constraints and _GOOS/_GOARCH name suffixes), so
// per-platform twins of a declaration do not collide.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path (module path + directory).
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset is the module-wide file set (shared across packages).
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's syntax annotations.
	Info *types.Info
	// TypeErrors collects type-checking problems; analysis proceeds
	// best-effort when non-empty.
	TypeErrors []error

	// model caches the dataflow package model (see modelFor). Each
	// package is analyzed by exactly one goroutine, so no lock is needed.
	model interface{}
}

// Module loads and caches the packages of one Go module.
type Module struct {
	// Path is the module path declared in go.mod.
	Path string
	// Root is the absolute directory containing go.mod.
	Root string

	fset    *token.FileSet
	pkgs    map[string]*Package // keyed by import path
	loading map[string]bool     // cycle detection
	std     types.Importer
}

// LoadModule locates the module containing dir (walking up to the
// nearest go.mod) and prepares a loader for it.
func LoadModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Module{
		Path:    modPath,
		Root:    root,
		fset:    fset,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		std:     importer.ForCompiler(fset, "source", nil),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", file)
}

// Load resolves the given patterns (relative to the module root;
// "./..." loads the whole module, "./x/..." a subtree, "./x" a single
// package) and returns the matched packages sorted by import path.
func (m *Module) Load(patterns ...string) ([]*Package, error) {
	dirSet := make(map[string]bool)
	for _, pat := range patterns {
		dirs, err := m.expandPattern(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			dirSet[d] = true
		}
	}
	var dirs []string
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := m.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// expandPattern maps one pattern to the package directories it names.
func (m *Module) expandPattern(pat string) ([]string, error) {
	recursive := false
	if pat == "..." {
		pat = "./..."
	}
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "" || pat == "." {
			pat = "."
		}
	}
	base := filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
	if rel, err := filepath.Rel(m.Root, base); err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: pattern %q escapes module root", pat)
	}
	if !recursive {
		if !hasGoFiles(base) {
			return nil, fmt.Errorf("lint: no Go files in %s", base)
		}
		return []string{base}, nil
	}
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test Go source file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(dir, e.Name()) {
			return true
		}
	}
	return false
}

// isSourceFile reports whether dir/name is a non-test Go file that go
// build would compile on this platform.
func isSourceFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") ||
		strings.HasSuffix(name, "_test.go") ||
		strings.HasPrefix(name, ".") ||
		strings.HasPrefix(name, "_") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return ok || err != nil // an unreadable file fails loudly at parse time
}

// importPathOf maps an absolute package directory to its import path.
func (m *Module) importPathOf(dir string) (string, error) {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return m.Path, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, m.Root)
	}
	return m.Path + "/" + filepath.ToSlash(rel), nil
}

// dirOf maps a module-local import path back to its directory.
func (m *Module) dirOf(path string) string {
	if path == m.Path {
		return m.Root
	}
	return filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(path, m.Path+"/")))
}

// loadDir loads the package in dir (nil if dir has no Go files).
func (m *Module) loadDir(dir string) (*Package, error) {
	path, err := m.importPathOf(dir)
	if err != nil {
		return nil, err
	}
	return m.load(path)
}

// load type-checks the package with the given module-local import path,
// memoized for the lifetime of the Module.
func (m *Module) load(path string) (*Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	dir := m.dirOf(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgNames := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(dir, e.Name()) {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", e.Name(), err)
		}
		files = append(files, f)
		pkgNames[f.Name.Name] = true
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	if len(pkgNames) > 1 {
		return nil, fmt.Errorf("lint: multiple package names in %s", dir)
	}

	p := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  m.fset,
		Files: files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	conf := types.Config{
		Importer:    importerFunc(m.importPkg),
		FakeImportC: true,
		Error: func(err error) {
			p.TypeErrors = append(p.TypeErrors, err)
		},
	}
	// Check returns the first error too; all errors are already in
	// TypeErrors via the handler, so the return is deliberately ignored
	// and analysis proceeds best-effort on partial type information.
	tpkg, _ := conf.Check(path, m.fset, files, p.Info)
	p.Types = tpkg
	m.pkgs[path] = p
	return p, nil
}

// importPkg resolves one import during type checking: module-local
// paths recurse into the loader, everything else goes to the from-source
// standard-library importer.
func (m *Module) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		p, err := m.load(path)
		if err != nil {
			return nil, err
		}
		if p.Types == nil {
			return nil, errors.New("lint: no type information for " + path)
		}
		return p.Types, nil
	}
	return m.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
