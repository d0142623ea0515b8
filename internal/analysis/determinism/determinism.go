// Package determinism verifies replay determinism at lint time.
//
// The training step promises bit-identical results for a seeded run:
// Gradient sums the batch in batch order, Apply steps once. That promise —
// and with it checkpoint replay and the cross-replica comparability of the
// benchmark trajectory — breaks the moment anything on the path consults a
// source that differs between runs.
// The three offenders in Go are map iteration order (randomized per run by
// the runtime), the wall clock, and unseeded global randomness.
//
// A function annotated
//
//	//cdml:deterministic
//
// (on a FuncDecl, or on an interface method to make the annotation part of
// the interface contract) is checked along with everything it statically
// calls:
//
//   - `range` over a map type is flagged;
//   - time.Now / time.Since / time.Until are flagged;
//   - package-level math/rand and math/rand/v2 draws are flagged
//     (explicitly seeded *rand.Rand instances are fine — that is the
//     repo-wide seeded-RNG discipline the globalrand analyzer enforces);
//   - unannotated same-package callees are walked transitively, so private
//     helpers inherit the obligation without annotation noise;
//   - in-module cross-package callees and dynamic (interface) callees must
//     themselves be annotated //cdml:deterministic — their bodies are then
//     checked by their own package's pass;
//   - stdlib and other non-module callees are trusted.
//
// Function literals called through variables are not resolved (no static
// callee); keep hot deterministic logic in named functions. Deliberate
// exceptions — e.g. timing instrumentation that feeds stats but not
// results — use `//lint:allow determinism: <why>`.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cdml/internal/analysis"
)

// marker is the function/interface-method annotation: `//cdml:deterministic`.
const marker = "cdml:deterministic"

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flags map iteration, wall-clock reads, and unseeded randomness in " +
		"//cdml:deterministic functions and their transitive static callees",
	Run: run,
}

// randPackages and randConstructors mirror the globalrand analyzer: only
// package-level draws are nondeterministic; constructing a seeded source is
// the sanctioned alternative.
var randPackages = map[string]bool{"math/rand": true, "math/rand/v2": true}

var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	annotated := collectAnnotated(pass.Files, pass.TypesInfo)
	if len(annotated) == 0 {
		return nil
	}
	for _, dep := range pass.Deps {
		collectInto(annotated, dep.Files, dep.TypesInfo)
	}
	bodies := localBodies(pass)

	c := &checker{
		pass:      pass,
		annotated: annotated,
		bodies:    bodies,
		walked:    make(map[*types.Func]bool),
		reported:  make(map[token.Pos]bool),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.HasMarker(fn.Doc, marker) {
				continue
			}
			c.check(fn, fn.Name.Name)
		}
	}
	return nil
}

// collectAnnotated gathers the //cdml:deterministic function and
// interface-method objects declared in files.
func collectAnnotated(files []*ast.File, info *types.Info) map[*types.Func]bool {
	annotated := make(map[*types.Func]bool)
	collectInto(annotated, files, info)
	return annotated
}

func collectInto(annotated map[*types.Func]bool, files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && analysis.HasMarker(fn.Doc, marker) {
				if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
					annotated[obj] = true
				}
			}
		}
		// Interface methods: the annotation on the method field makes
		// determinism part of the interface contract.
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok || it.Methods == nil {
				return true
			}
			for _, field := range it.Methods.List {
				if !analysis.HasMarker(field.Doc, marker) && !analysis.HasMarker(field.Comment, marker) {
					continue
				}
				for _, name := range field.Names {
					if obj, ok := info.Defs[name].(*types.Func); ok {
						annotated[obj] = true
					}
				}
			}
			return true
		})
	}
}

// localBodies maps this package's function objects to their declarations so
// unannotated helpers can be walked transitively.
func localBodies(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	bodies := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				bodies[obj] = fn
			}
		}
	}
	return bodies
}

type checker struct {
	pass      *analysis.Pass
	annotated map[*types.Func]bool
	bodies    map[*types.Func]*ast.FuncDecl
	walked    map[*types.Func]bool
	reported  map[token.Pos]bool
}

// reportf dedupes by position: a helper shared by several deterministic
// roots yields one diagnostic, attributed to the first root that reached it.
func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// site renders the attribution suffix for diagnostics inside helpers.
func site(fnName, root string) string {
	if fnName == root {
		return "//cdml:deterministic " + fnName
	}
	return fnName + " (reached from //cdml:deterministic " + root + ")"
}

// check walks one function body, recursing into unannotated same-package
// callees.
func (c *checker) check(fn *ast.FuncDecl, root string) {
	obj, _ := c.pass.TypesInfo.Defs[fn.Name].(*types.Func)
	if obj != nil {
		if c.walked[obj] {
			return
		}
		c.walked[obj] = true
	}
	where := site(fn.Name.Name, root)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.RangeStmt:
			if t := c.pass.TypesInfo.TypeOf(stmt.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					c.reportf(stmt.Pos(),
						"map iteration in %s: runtime randomizes map order per run", where)
				}
			}
		case *ast.CallExpr:
			c.checkCall(stmt, fn, where, root)
		}
		return true
	})
}

// checkCall classifies one call site inside a deterministic context.
func (c *checker) checkCall(call *ast.CallExpr, fn *ast.FuncDecl, where, root string) {
	callee := staticCallee(c.pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil {
		return // dynamic closure call, builtin, or conversion
	}
	pkg := callee.Pkg().Path()
	name := callee.Name()
	sig, _ := callee.Type().(*types.Signature)
	pkgLevel := sig != nil && sig.Recv() == nil

	switch {
	case pkg == "time" && pkgLevel && (name == "Now" || name == "Since" || name == "Until"):
		c.reportf(call.Pos(), "time.%s in %s: wall-clock reads differ across runs and replicas", name, where)
		return
	case randPackages[pkg] && pkgLevel && !randConstructors[name]:
		c.reportf(call.Pos(), "global %s draw in %s: unseeded randomness; use a seeded *rand.Rand", name, where)
		return
	}

	if c.annotated[callee] {
		return // its own package's pass checks the body
	}
	if callee.Pkg() == c.pass.Pkg {
		if decl, ok := c.bodies[callee]; ok {
			c.check(decl, root)
			return
		}
		// Same-package object without a body: an interface method.
		c.reportf(call.Pos(),
			"call to %s in %s: dynamic callee is not annotated //cdml:deterministic (annotate the interface method)",
			name, where)
		return
	}
	if inModule(pkg) {
		c.reportf(call.Pos(),
			"call to %s.%s in %s: in-module callee is not annotated //cdml:deterministic",
			callee.Pkg().Name(), name, where)
	}
}

// inModule reports whether a package path belongs to this module.
func inModule(path string) bool {
	return path == "cdml" || strings.HasPrefix(path, "cdml/")
}

// staticCallee resolves the called function object, or nil for dynamic
// calls and conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj, _ := info.Uses[id].(*types.Func)
	return obj
}
