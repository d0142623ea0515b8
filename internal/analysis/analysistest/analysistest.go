// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against expectations embedded in the fixtures — the
// stdlib-only counterpart of golang.org/x/tools/go/analysis/analysistest.
//
// Expectations are trailing comments of the form
//
//	expr // want `regexp`
//	expr // want `first` `second`
//
// one comment per line, one back-quoted pattern per expected diagnostic:
// the analyzer must report exactly as many diagnostics on that line as the
// comment carries patterns, and the k-th diagnostic (in report order) must
// match the k-th pattern. Lines without a want comment must produce no
// diagnostic, so fixtures can also pin down what the analyzer (or a
// //lint:allow annotation) keeps quiet.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cdml/internal/analysis"
)

// wantRe recognizes a want comment and captures its pattern list; patRe
// then splits the list into one back-quoted pattern per expected
// diagnostic.
var (
	wantRe = regexp.MustCompile("//\\s*want\\s+(`[^`]+`(?:\\s+`[^`]+`)*)")
	patRe  = regexp.MustCompile("`([^`]+)`")
)

// expectation is one want comment.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
}

// Run type-checks the fixture package rooted at dir (all .go files,
// stdlib imports only; subdirectories are packages that use it), runs the analyzer with //lint:allow suppression
// applied, and reports mismatches against the fixture's want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := loadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := pkg.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	expects, err := collectWants(pkg.Fset, pkg.Files)
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	unmatched := make(map[key][]analysis.Diagnostic)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{filepath.Base(pos.Filename), pos.Line}
		unmatched[k] = append(unmatched[k], d)
	}
	for _, exp := range expects {
		k := key{exp.file, exp.line}
		ds := unmatched[k]
		if len(ds) == 0 {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", exp.file, exp.line, exp.pattern)
			continue
		}
		if !exp.pattern.MatchString(ds[0].Message) {
			t.Errorf("%s:%d: diagnostic %q does not match %q", exp.file, exp.line, ds[0].Message, exp.pattern)
		}
		unmatched[k] = ds[1:]
	}
	keys := make([]key, 0, len(unmatched))
	for k, ds := range unmatched {
		if len(ds) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, d := range unmatched[k] {
			t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, d.Message)
		}
	}
}

// loadFixture parses and type-checks every .go file in dir as one package
// (stdlib imports only), then every subdirectory as a package that may
// import it; together they are the fixture's Module.
func loadFixture(dir string) (*analysis.Package, error) {
	fset := token.NewFileSet()
	std := analysis.NewStdlibImporter(fset)
	pkg, subdirs, err := checkDir(fset, dir, "fixture/"+filepath.Base(dir), std)
	if err != nil {
		return nil, err
	}
	pkg.Module = &analysis.Module{Units: []*analysis.Package{pkg}}
	for _, sub := range subdirs {
		user, _, err := checkDir(fset, filepath.Join(dir, sub), pkg.PkgPath+"/"+sub, fixtureImporter{pkg.Types, std})
		if err != nil {
			return nil, err
		}
		pkg.Module.Units = append(pkg.Module.Units, user)
	}
	return pkg, nil
}

// fixtureImporter resolves the fixture package itself and leaves the rest to
// the standard library.
type fixtureImporter struct {
	fixture *types.Package
	std     types.Importer
}

func (fi fixtureImporter) Import(path string) (*types.Package, error) {
	if path == fi.fixture.Path() {
		return fi.fixture, nil
	}
	return fi.std.Import(path)
}

// checkDir parses and type-checks the .go files of one directory as the
// package path, and names its subdirectories.
func checkDir(fset *token.FileSet, dir, path string, imp types.Importer) (*analysis.Package, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("analysistest: %v", err)
	}
	var files []*ast.File
	var subdirs []string
	for _, e := range entries {
		if e.IsDir() {
			subdirs = append(subdirs, e.Name())
		}
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("analysistest: parsing %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("analysistest: no fixture files in %s", dir)
	}
	info := &types.Info{
		Types:     make(map[ast.Expr]types.TypeAndValue),
		Defs:      make(map[*ast.Ident]types.Object),
		Uses:      make(map[*ast.Ident]types.Object),
		Implicits: make(map[ast.Node]types.Object),
	}
	tpkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("analysistest: type-checking %s: %v", dir, err)
	}
	return &analysis.Package{
		PkgPath:   tpkg.Path(),
		Dir:       dir,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, subdirs, nil
}

// collectWants gathers the want comments of the fixture files; a comment
// with several back-quoted patterns yields one expectation per pattern, in
// order.
func collectWants(fset *token.FileSet, files []*ast.File) ([]expectation, error) {
	var out []expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pm := range patRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(pm[1])
					if err != nil {
						return nil, fmt.Errorf("analysistest: bad want pattern %q: %v", pm[1], err)
					}
					out = append(out, expectation{
						file:    filepath.Base(pos.Filename),
						line:    pos.Line,
						pattern: re,
					})
				}
			}
		}
	}
	return out, nil
}
