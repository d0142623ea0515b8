package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

func TestAllowsAnalyzer(t *testing.T) {
	cases := []struct {
		text string
		name string
		want bool
	}{
		// Canonical colon form.
		{"lint:allow floateq: zero sentinel", "floateq", true},
		{"lint:allow floateq,hotpath: shared line", "hotpath", true},
		{"lint:allow floateq,hotpath: shared line", "floateq", true},
		{"  lint:allow floateq:  ", "floateq", true},
		{"lint:allow floateq : space before the colon still parses", "floateq", true},
		// Legacy colon-less form still suppresses (CheckAllows flags it, so
		// the gate forces conversion without ever un-suppressing findings
		// mid-migration).
		{"lint:allow floateq", "floateq", true},
		{"lint:allow floateq old free-form reason", "floateq", true},
		{"lint:allow floateq,hotpath shared line", "hotpath", true},
		// Non-matches.
		{"lint:allow floateq: zero sentinel", "hotpath", false},
		{"lint:allow", "floateq", false},
		{"lint:allowfloateq", "floateq", false},
		{"just a comment", "floateq", false},
	}
	for _, c := range cases {
		if got := allowsAnalyzer(c.text, c.name); got != c.want {
			t.Errorf("allowsAnalyzer(%q, %q) = %v, want %v", c.text, c.name, got, c.want)
		}
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text      string
		names     []string
		reason    string
		canonical bool
	}{
		{"lint:allow floateq: zero sentinel", []string{"floateq"}, "zero sentinel", true},
		{"lint:allow floateq,hotpath: shared", []string{"floateq", "hotpath"}, "shared", true},
		{"lint:allow floateq legacy reason", []string{"floateq"}, "legacy reason", false},
		{"lint:allow floateq", []string{"floateq"}, "", false},
		{"lint:allow", nil, "", false},
		{"lint:allow floateq:", []string{"floateq"}, "", true},
	}
	for _, c := range cases {
		pa, ok := parseAllow(c.text)
		if !ok {
			t.Errorf("parseAllow(%q) not recognized", c.text)
			continue
		}
		if !reflect.DeepEqual(pa.names, c.names) || pa.reason != c.reason || pa.canonical != c.canonical {
			t.Errorf("parseAllow(%q) = {names:%v reason:%q canonical:%v}, want {%v %q %v}",
				c.text, pa.names, pa.reason, pa.canonical, c.names, c.reason, c.canonical)
		}
	}
}

func TestSuppress(t *testing.T) {
	src := `package p

func f() {
	one()
	//lint:allow demo: standalone form covers the next line
	two()
	three() //lint:allow demo: trailing form covers its own and the next line
	four()
	five()
	six() //lint:allow other: different analyzer does not suppress demo
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "demo.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	tf := fset.File(f.Pos())
	var diags []Diagnostic
	for line := 4; line <= 10; line++ {
		diags = append(diags, Diagnostic{Pos: tf.LineStart(line), Message: "x"})
	}
	kept := suppress(fset, []*ast.File{f}, "demo", diags)
	var keptLines []int
	for _, d := range kept {
		keptLines = append(keptLines, fset.Position(d.Pos).Line)
	}
	// 5 and 6 go (standalone comment), 7 and 8 go (trailing comment);
	// 4, 9, and 10 survive (10's allow names a different analyzer).
	if want := []int{4, 9, 10}; !reflect.DeepEqual(keptLines, want) {
		t.Errorf("kept lines %v, want %v", keptLines, want)
	}
}

func TestCheckAllows(t *testing.T) {
	src := `package p

func f() {
	one()   //lint:allow demo: documented reason
	two()   //lint:allow demo
	three() //lint:allow demo legacy free-form reason
	four()  //lint:allow
	five()  //lint:allow demo:
	six()   // an ordinary comment
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "demo.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags := CheckAllows(fset, []*ast.File{f})
	var lines []int
	for _, d := range diags {
		lines = append(lines, fset.Position(d.Pos).Line)
	}
	// 4 is canonical; 5 (no reason), 6 (legacy form), 7 (bare), and 8
	// (colon but empty reason) are all malformed.
	if want := []int{5, 6, 7, 8}; !reflect.DeepEqual(lines, want) {
		t.Errorf("flagged lines %v, want %v", lines, want)
	}
	for _, d := range diags {
		if fset.Position(d.Pos).Line == 7 && d.Message != "bare //lint:allow suppresses nothing; use //lint:allow <analyzer>: <why>" {
			t.Errorf("bare allow message = %q", d.Message)
		}
	}
}

// An external test package that calls what its package's export_test.go
// declares, on values a package importing the package hands it, type-checks:
// it, and every in-module importer of the package, are checked against the
// package with its in-package test files, as `go test` builds them.
func TestLoadChecksExternalTestsAgainstExportTest(t *testing.T) {
	pkgs, err := Load("testdata/loader", "./...")
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]bool{}
	for _, u := range pkgs[0].Module.Units {
		units[u.PkgPath] = true
	}
	for _, want := range []string{"loaderfixture/internal/lib", "loaderfixture/internal/lib/use", "loaderfixture/internal/lib_test"} {
		if !units[want] {
			t.Errorf("no unit %s among %v", want, units)
		}
	}
}
