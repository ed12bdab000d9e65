package vet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and type-checked Go package.
type Package struct {
	// Path is the package's import path ("repro/internal/obs"), or a
	// synthetic path for packages loaded from a bare directory.
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Files are the parsed (non-test) source files, comments included.
	Files []*ast.File
	// Types is the type-checked package; Info the collected facts.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library: module-internal imports resolve against the module
// tree, everything else (the standard library) through the source
// importer. All packages share one FileSet so positions compose.
type Loader struct {
	Fset    *token.FileSet
	modPath string
	modDir  string
	std     types.ImporterFrom
	pkgs    map[string]*Package // memo by import path
	loading map[string]bool     // cycle guard
}

// NewLoader builds a loader rooted at the module directory containing
// go.mod (searched upward from dir).
func NewLoader(dir string) (*Loader, error) {
	modDir, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		modPath: modPath,
		modDir:  modDir,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// ModDir returns the module root directory.
func (l *Loader) ModDir() string { return l.modDir }

// findModule walks upward from dir to the first go.mod and returns the
// module directory and module path.
func findModule(dir string) (string, string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("vet: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("vet: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves the given package patterns and returns the loaded
// packages, sorted by import path. Patterns:
//
//	./...          every package under the module root
//	./x/... x/...  every package under a subtree
//	./x/y  x/y     a single package directory
//	/abs/dir       a bare directory outside the module (synthetic path)
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			walked, err := l.walk(l.modDir)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(l.modDir, strings.TrimSuffix(pat, "/..."))
			walked, err := l.walk(root)
			if err != nil {
				return nil, err
			}
			for _, d := range walked {
				add(d)
			}
		case filepath.IsAbs(pat):
			add(filepath.Clean(pat))
		default:
			add(filepath.Join(l.modDir, pat))
		}
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// walk collects every directory under root that contains buildable Go
// files, skipping hidden, vendor, and testdata trees.
func (l *Loader) walk(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "bin") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir loads the single package in dir (memoized). Directories
// inside the module get their real import path; outside, a synthetic
// path derived from the directory name.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.importPathFor(dir)
	return l.load(path, dir)
}

func (l *Loader) importPathFor(dir string) string {
	if rel, err := filepath.Rel(l.modDir, dir); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.modPath
		}
		return l.modPath + "/" + filepath.ToSlash(rel)
	}
	return filepath.Base(dir)
}

// dirFor inverts importPathFor for module-internal import paths.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.modPath {
		return l.modDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("vet: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("vet: reading %s: %w", dir, err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("vet: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("vet: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// loaderImporter resolves imports during type checking: module paths
// recurse into the loader, "unsafe" is the builtin package, and
// everything else is compiled from source out of GOROOT.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("vet: no Go files in %s", dir)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
