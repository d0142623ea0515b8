// Package ctxflow verifies context discipline at lint time.
//
// Deadlines, cancellation, and trace propagation all ride on the
// context.Context that enters with a request or a deployment tick. A single
// context.Background() in the middle of that path silently severs all
// three — the classic failure being a handler that calls a convenience
// wrapper which re-roots the context, so server shutdown no longer cancels
// in-flight work and trace spans lose their parent.
//
// Three rules, all over the go/types call graph:
//
//  1. Inside a context-receiving function (a parameter of type
//     context.Context or *http.Request), calling context.Background() or
//     context.TODO() is flagged: the caller's context must be threaded.
//
//  2. Inside a context-receiving function, calling an in-module detaching
//     wrapper — a function with no context parameter whose body re-roots
//     via Background/TODO, discovered across the dependency closure — is
//     flagged too: call the Ctx-taking variant instead. This is the
//     cross-function rule that catches e.g. a handler calling Ingest
//     instead of IngestLogged.
//
//  3. Everywhere else (outside package main, which owns the process root
//     context), context.Background()/TODO() must sit inside a function
//     annotated
//
//     //cdml:detached <why>
//
//     — the documented inventory of places where detaching is the point:
//     queue-drain boundaries, background lifecycles, compatibility
//     wrappers. A reason is mandatory; a bare marker is itself flagged.
//
// Residual deliberate exceptions use `//lint:allow ctxflow: <why>`.
package ctxflow

import (
	"go/ast"
	"go/types"

	"cdml/internal/analysis"
)

// detachedMarker documents a legitimate context detachment point:
// `//cdml:detached <why>`.
const detachedMarker = "cdml:detached"

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flags context.Background()/TODO() on request/tick paths and calls " +
		"from context-receiving functions into wrappers that re-root the " +
		"context; detachment points must carry //cdml:detached <why>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	wrappers := collectWrappers(pass)
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			reason, detached := analysis.MarkerArg(fn.Doc, detachedMarker)
			if detached && reason == "" {
				pass.Reportf(fn.Pos(), "//cdml:detached needs a reason: //cdml:detached <why>")
			}
			if detached {
				// The documented detachment point: re-rooting inside is the
				// function's purpose.
				continue
			}
			hasCtx := receivesCtx(pass.TypesInfo, fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := rootCall(pass.TypesInfo, call); callee != "" {
					switch {
					case hasCtx:
						pass.Reportf(call.Pos(),
							"context.%s() inside context-receiving %s severs cancellation and tracing; thread the caller's ctx",
							callee, fn.Name.Name)
					case !isMain:
						pass.Reportf(call.Pos(),
							"context.%s() outside a //cdml:detached function; annotate the detachment point with a reason or thread a ctx",
							callee)
					}
					return true
				}
				if !hasCtx {
					return true
				}
				if w := calleeFunc(pass.TypesInfo, call); w != nil && wrappers[w] {
					pass.Reportf(call.Pos(),
						"%s re-roots the context internally (it wraps context.Background); call its ctx-threading variant from %s",
						w.Name(), fn.Name.Name)
				}
				return true
			})
		}
	}
	return nil
}

// collectWrappers finds every in-module function — this package plus the
// whole dependency closure — that takes no context yet re-roots one in its
// body. Calls to these from context-receiving code silently detach.
func collectWrappers(pass *analysis.Pass) map[*types.Func]bool {
	wrappers := make(map[*types.Func]bool)
	scan := func(files []*ast.File, info *types.Info) {
		for _, f := range files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || receivesCtx(info, fn) {
					continue
				}
				reroots := false
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && rootCall(info, call) != "" {
						reroots = true
						return false
					}
					return !reroots
				})
				if !reroots {
					continue
				}
				if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
					wrappers[obj] = true
				}
			}
		}
	}
	scan(pass.Files, pass.TypesInfo)
	for _, dep := range pass.Deps {
		scan(dep.Files, dep.TypesInfo)
	}
	return wrappers
}

// rootCall reports whether call is context.Background() or context.TODO(),
// returning the function name ("" otherwise).
func rootCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return ""
	}
	if name := obj.Name(); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}

// calleeFunc resolves a call's static callee, or nil for dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
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

// receivesCtx reports whether fn declares a parameter that carries a
// request-scoped context: context.Context itself or *http.Request (whose
// Context() is the handler-path source of truth).
func receivesCtx(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if isNamed(t, "context", "Context") {
			return true
		}
		if p, ok := t.Underlying().(*types.Pointer); ok && isNamed(p.Elem(), "net/http", "Request") {
			return true
		}
	}
	return false
}

// isNamed reports whether t is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
