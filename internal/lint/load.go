package lint

import (
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

// loader type-checks module packages with go/types. Module-internal imports
// ("ray/...") are resolved by parsing and checking the imported directory
// recursively; everything else (the standard library) is delegated to the
// stdlib source importer. This is what lets raylint run with zero external
// dependencies: no go/packages, no export data, just source.
type loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	std        types.Importer
	pkgs       map[string]*Package
	loading    map[string]bool
}

// Load parses and type-checks every package under the given directories
// (relative to moduleRoot), plus everything they transitively import from the
// module. Directories named "testdata" or starting with "." or "_" are
// skipped, matching the go tool's conventions.
func Load(moduleRoot string, dirs ...string) (*Program, error) {
	moduleRoot, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modulePath, err := modulePathOf(moduleRoot)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}
	var targets []string
	for _, dir := range dirs {
		pkgDirs, err := ld.discover(filepath.Join(moduleRoot, dir))
		if err != nil {
			return nil, err
		}
		targets = append(targets, pkgDirs...)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("lint: no packages found under %v", dirs)
	}
	for _, dir := range targets {
		pkg, err := ld.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkg.Target = true
	}
	prog := &Program{Fset: fset}
	for _, pkg := range ld.pkgs {
		prog.Packages = append(prog.Packages, pkg)
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].Path < prog.Packages[j].Path
	})
	return prog, nil
}

// modulePathOf reads the module path from go.mod. The loader needs it to tell
// module-internal import paths apart from standard-library ones.
func modulePathOf(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// discover walks dir and returns every directory containing at least one
// non-test .go file.
func (l *loader) discover(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && isGoSource(e.Name()) {
				out = append(out, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

func isGoSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// importPathFor maps a directory under the module root to its import path.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modulePath, nil
	}
	return l.modulePath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer for the type-checker's import resolution.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.moduleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// loadDir parses and type-checks one module package directory (memoized).
func (l *loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isGoSource(e.Name()) {
			continue
		}
		// A //go:build pair (race / !race) declares one name twice: check
		// the file set the default build would compile.
		if match, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", path, err)
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go source in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
