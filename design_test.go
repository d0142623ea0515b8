package cdml_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDesignInventoryNamesEveryPackage: DESIGN.md §1, the system inventory,
// names in backticks exactly the directories under internal/ and cmd/ — a
// package cannot be added without its row, or deleted and stay listed.
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 1. System inventory\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## 1. System inventory\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	named := map[string]bool{}
	for _, m := range regexp.MustCompile("`((?:internal|cmd)/[a-z0-9-]+)`").FindAllStringSubmatch(section, -1) {
		named[m[1]] = true
	}
	var listed, tree []string
	for dir := range named {
		listed = append(listed, dir)
	}
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				tree = append(tree, root+"/"+e.Name())
			}
		}
	}
	sort.Strings(listed)
	sort.Strings(tree)
	if !reflect.DeepEqual(listed, tree) {
		t.Fatalf("DESIGN.md §1 names\n%q\nthe tree holds\n%q", listed, tree)
	}
}

// goStringLiterals collects every string literal of the non-test Go under
// internal/, cmd/ and cdml.go, analyzer fixtures under testdata/ left out.
func goStringLiterals(t *testing.T) map[string]bool {
	t.Helper()
	literals := map[string]bool{}
	collect := func(path string) {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					literals[s] = true
				}
			}
			return true
		})
	}
	collect("cdml.go")
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() && e.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !e.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				collect(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return literals
}

// readmeMetricNames lists the `cdml_*` names README.md puts in backticks; a
// trailing `*` names a family.
func readmeMetricNames(t *testing.T) []string {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`\bcdml_[a-z0-9_]+\*?`)
	var names []string
	for _, span := range regexp.MustCompile("`[^`\n]+`").FindAll(readme, -1) {
		for _, m := range name.FindAll(span, -1) {
			names = append(names, string(m))
		}
	}
	if len(names) == 0 {
		t.Fatal("README.md names no cdml_* metric")
	}
	return names
}

// TestREADMENamesOnlyRegisteredMetrics is the metrics half of the catalogue
// guard: every `cdml_*` name README.md puts in backticks is a string literal
// of the non-test Go under internal/, cmd/ or cdml.go — a metric cannot be
// deleted and stay documented. A trailing `*` names a family: some literal
// must start with what precedes it.
func TestREADMENamesOnlyRegisteredMetrics(t *testing.T) {
	literals := goStringLiterals(t)
	registered := func(name string) bool {
		prefix, family := strings.CutSuffix(name, "*")
		if !family {
			return literals[name]
		}
		for s := range literals {
			if strings.HasPrefix(s, prefix) {
				return true
			}
		}
		return false
	}
	for _, m := range readmeMetricNames(t) {
		if !registered(m) {
			t.Errorf("README.md names %s, which no non-test Go registers", m)
		}
	}
}

// TestREADMENamesEveryMetric is the other direction: every `cdml_*` string
// literal of that Go is in README.md in backticks, by its name or under a
// `family*` whose prefix it starts with — a metric cannot be added and stay
// undocumented.
func TestREADMENamesEveryMetric(t *testing.T) {
	documented := map[string]bool{}
	var families []string
	for _, m := range readmeMetricNames(t) {
		if prefix, family := strings.CutSuffix(m, "*"); family {
			families = append(families, prefix)
		} else {
			documented[m] = true
		}
	}
	metric := regexp.MustCompile(`^cdml_[a-z0-9_]+$`)
	var missing []string
	for s := range goStringLiterals(t) {
		if !metric.MatchString(s) || documented[s] ||
			slices.ContainsFunc(families, func(p string) bool { return strings.HasPrefix(s, p) }) {
			continue
		}
		missing = append(missing, s)
	}
	slices.Sort(missing)
	for _, s := range missing {
		t.Errorf("non-test Go registers %s, which README.md does not name", s)
	}
}
