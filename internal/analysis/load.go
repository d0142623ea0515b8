package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// PkgPath is the import path ("cdml/internal/core").
	PkgPath string
	// Dir is the package's source directory.
	Dir string
	// Fset maps token positions of Files.
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo holds expression types and identifier resolutions.
	TypesInfo *types.Info
	// Deps holds the package's in-module dependency closure, keyed by import
	// path, with full syntax and type information. It is the fact channel of
	// the contract analyzers: a pass over this package can read annotations
	// (//cdml:deterministic, //cdml:frozen, ...) off the declarations of the
	// packages it imports — the stdlib-only analogue of the upstream
	// framework's ImportPackageFact. Dependency packages share this package's
	// FileSet, so their token positions render through the same Fset.
	Deps map[string]*Package
	// Module is everything the load saw, for the analyzers whose question is
	// about the whole module (deadexport). Nil for a package built by hand.
	Module *Module
}

// Module is one Load's view of the whole module.
type Module struct {
	// Units are the type-checked bodies of code that can name a package's
	// declarations: every package, every package again together with its
	// in-package _test.go files, and every external test package (PkgPath
	// "<path>_test"). They share one FileSet and one parse of every file, so
	// an identifier in any unit that refers to a declaration of another
	// package resolves to an object at that declaration's position: the
	// package's own types.Object, or — from an external test package, which
	// is checked as `go test` builds it (testImporter) — that of the package
	// checked again.
	Units []*Package
	// Foreign are the files of nested modules (benchmark/), parsed but not
	// type-checked: they import this module's internal packages, and the
	// loader's `go list` stops at their go.mod.
	Foreign []*ast.File
}

// listedPackage is the slice of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	Module       *struct{ Path, Dir string }
}

// goList runs `go list -json` with args and decodes the JSON stream.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", args, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// stdImporter resolves non-local (standard library) imports, preferring the
// fast compiled-export-data importer and falling back to type-checking from
// source. Results are cached.
type stdImporter struct {
	fset   *token.FileSet
	gc     types.Importer
	source types.Importer
	cache  map[string]*types.Package
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	return &stdImporter{
		fset:   fset,
		gc:     importer.Default(),
		source: importer.ForCompiler(fset, "source", nil),
		cache:  make(map[string]*types.Package),
	}
}

func (si *stdImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := si.cache[path]; ok {
		return pkg, nil
	}
	pkg, err := si.gc.Import(path)
	if err != nil {
		pkg, err = si.source.Import(path)
	}
	if err != nil {
		return nil, err
	}
	si.cache[path] = pkg
	return pkg, nil
}

// NewStdlibImporter returns an importer that resolves standard-library
// packages only — what analysistest fixtures (which may import nothing
// else) type-check against.
func NewStdlibImporter(fset *token.FileSet) types.Importer {
	return newStdImporter(fset)
}

// moduleImporter resolves imports during the topological type-check: local
// packages come from the already-checked set, everything else from the
// standard-library importer.
type moduleImporter struct {
	local map[string]*types.Package
	std   *stdImporter
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := mi.local[path]; ok {
		return pkg, nil
	}
	return mi.std.Import(path)
}

// Load lists, parses, and type-checks the packages matched by patterns and
// returns them. The rest of their module is checked too, tests included, and
// hangs off every returned package as its Module: who refers to a
// declaration is a question about all of it, whatever the patterns.
// dir is the working directory for `go list`; "" means the current one.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	requested, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	// -deps pulls in the in-module dependency closure so every package
	// type-checks; standard-library entries are resolved through export data
	// instead.
	all := append([]string{"-deps"}, patterns...)
	var moduleDir string
	if len(requested) > 0 && requested[0].Module != nil {
		all, moduleDir = append(all, requested[0].Module.Path+"/..."), requested[0].Module.Dir
	}
	listed, err := goList(dir, all...)
	if err != nil {
		return nil, err
	}
	wanted := make(map[string]bool, len(requested))
	for _, p := range requested {
		wanted[p.ImportPath] = true
	}

	local := make(map[string]*listedPackage)
	for _, p := range listed {
		if !p.Standard {
			local[p.ImportPath] = p
		}
	}

	fset := token.NewFileSet()
	std := newStdImporter(fset)
	checked := make(map[string]*types.Package, len(local))
	built := make(map[string]*Package, len(local))
	imp := &moduleImporter{local: checked, std: std}
	result := make([]*Package, 0, len(wanted))

	// Topological order over the in-module import graph.
	var (
		visit func(path string) error
		state = make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	)
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		lp := local[path]
		for _, dep := range lp.Imports {
			if _, ok := local[dep]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		pkg, err := checkPackage(fset, lp, imp)
		if err != nil {
			return err
		}
		checked[path] = pkg.Types
		built[path] = pkg
		// The dependency closure: every direct in-module import plus, by
		// induction over the topological order, everything it depends on.
		pkg.Deps = make(map[string]*Package)
		for _, dep := range lp.Imports {
			dp, ok := built[dep]
			if !ok {
				continue
			}
			pkg.Deps[dep] = dp
			for p, d := range dp.Deps {
				pkg.Deps[p] = d
			}
		}
		if wanted[path] {
			result = append(result, pkg)
		}
		state[path] = 2
		return nil
	}
	// Iterate in listed order (go list output is deterministic) so results
	// and error reporting are stable.
	mod := &Module{}
	for _, p := range listed {
		if _, ok := local[p.ImportPath]; ok {
			if err := visit(p.ImportPath); err != nil {
				return nil, err
			}
			built[p.ImportPath].Module = mod
			mod.Units = append(mod.Units, built[p.ImportPath])
		}
	}
	// The test units come last: every package they import is checked by now.
	for _, p := range listed {
		if p.Standard {
			continue
		}
		var ximp types.Importer = imp
		if len(p.TestGoFiles) > 0 {
			// In-package tests are checked together with the package's files,
			// and the external tests against that.
			both := append(append([]string(nil), p.GoFiles...), p.TestGoFiles...)
			u, err := checkPackage(fset, &listedPackage{ImportPath: p.ImportPath, Dir: p.Dir, GoFiles: both}, imp)
			if err != nil {
				return nil, err
			}
			mod.Units = append(mod.Units, u)
			ximp = &testImporter{path: p.ImportPath, test: u.Types, built: built, base: imp, again: map[string]*types.Package{}}
		}
		if len(p.XTestGoFiles) > 0 {
			u, err := checkPackage(fset, &listedPackage{ImportPath: p.ImportPath + "_test", Dir: p.Dir, GoFiles: p.XTestGoFiles}, ximp)
			if err != nil {
				return nil, err
			}
			mod.Units = append(mod.Units, u)
		}
	}
	if moduleDir != "" {
		if mod.Foreign, err = parseNestedModules(fset, moduleDir); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// testImporter resolves the imports of path's external test package as `go
// test` builds it: path is the package checked with its in-package test
// files (test), so what an export_test.go declares resolves, and an
// in-module package that imports path, directly or not, is checked again
// against that — from its files as parsed once, so its declarations keep
// their positions. Everything else is the module's one check.
type testImporter struct {
	path  string
	test  *types.Package
	built map[string]*Package
	base  types.Importer
	again map[string]*types.Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if path == ti.path {
		return ti.test, nil
	}
	if pkg, ok := ti.again[path]; ok {
		return pkg, nil
	}
	p, ok := ti.built[path]
	if !ok || p.Deps[ti.path] == nil {
		return ti.base.Import(path)
	}
	conf := types.Config{Importer: ti}
	pkg, err := conf.Check(path, p.Fset, p.Files, nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s against %s's tests: %v", path, ti.path, err)
	}
	ti.again[path] = pkg
	return pkg, nil
}

// parseNestedModules parses every .go file of the modules nested below root:
// a directory other than root that holds a go.mod, and everything under it.
func parseNestedModules(fset *token.FileSet, root string) ([]*ast.File, error) {
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err != nil {
			return nil
		}
		err = filepath.WalkDir(path, func(file string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err == nil {
				files = append(files, f)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("analysis: parsing nested module %s: %v", path, err)
		}
		return filepath.SkipDir
	})
	return files, err
}

// checkPackage parses and type-checks one listed package.
func checkPackage(fset *token.FileSet, lp *listedPackage, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:     make(map[ast.Expr]types.TypeAndValue),
		Defs:      make(map[*ast.Ident]types.Object),
		Uses:      make(map[*ast.Ident]types.Object),
		Implicits: make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		PkgPath:   lp.ImportPath,
		Dir:       lp.Dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
