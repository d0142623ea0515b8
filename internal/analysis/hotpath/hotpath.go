// Package hotpath statically protects the 0 allocs/op contract of the
// serving benchmarks.
//
// Functions annotated with a `//cdml:hotpath` doc-comment line are the
// per-event serve/predict/online-update paths (obs counter increments,
// histogram observes, sparse dot products, model scoring, drift detector
// updates). Inside them the analyzer flags allocation- and syscall-bearing
// constructs:
//
//   - time.Now() — a syscall (or vDSO call) per event;
//   - any fmt.* call — formatting allocates via its ...interface{} varargs;
//   - map and slice composite literals — heap allocations;
//   - function literals — closures whose captures may escape;
//   - explicit conversions to an interface type — box the operand.
//
// Arguments of panic(...) are exempt: a cold must-not-happen branch pays
// nothing on the happy path, and panic messages should stay descriptive.
// Anything else that is deliberate gets `//lint:allow hotpath: <why>`.
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"cdml/internal/analysis"
)

// marker is the doc-comment line that opts a function into the check.
const marker = "cdml:hotpath"

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "flags allocation- and syscall-bearing constructs (time.Now, fmt.*, " +
		"map/slice literals, closures, interface conversions) inside " +
		"//cdml:hotpath-annotated functions",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotPath(fn) {
				continue
			}
			checkBody(pass, fn.Body)
		}
	}
	return nil
}

// isHotPath reports whether fn's doc comment contains the marker line.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, marker) {
			return true
		}
	}
	return false
}

// checkBody walks an annotated function body, skipping panic(...) argument
// subtrees (cold branches by definition).
func checkBody(pass *analysis.Pass, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && isBuiltinPanic(pass, call) {
			return false // exempt the argument subtree
		}
		check(pass, n)
		return true
	})
}

// check reports one node if it is a flagged construct.
func check(pass *analysis.Pass, n ast.Node) {
	switch n := n.(type) {
	case *ast.CallExpr:
		checkCall(pass, n)
	case *ast.CompositeLit:
		t := pass.TypesInfo.TypeOf(n)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Map:
			pass.Reportf(n.Pos(), "map literal allocates on a //cdml:hotpath function")
		case *types.Slice:
			pass.Reportf(n.Pos(), "slice literal allocates on a //cdml:hotpath function")
		}
	case *ast.FuncLit:
		pass.Reportf(n.Pos(), "closure on a //cdml:hotpath function; captured variables may escape to the heap")
	}
}

// checkCall flags syscall/allocation-bearing calls and explicit interface
// conversions.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	// Explicit conversion to an interface type boxes its operand.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			pass.Reportf(call.Pos(), "conversion to interface type %s allocates on a //cdml:hotpath function", tv.Type)
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if obj.Name() == "Now" {
			pass.Reportf(call.Pos(), "time.Now() is a syscall on a //cdml:hotpath function; take the timestamp outside the hot loop")
		}
	case "fmt":
		pass.Reportf(call.Pos(), "fmt.%s allocates (varargs boxing) on a //cdml:hotpath function", obj.Name())
	}
}

// isBuiltinPanic reports whether call invokes the predeclared panic.
func isBuiltinPanic(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}
