// Package snapfreeze verifies snapshot immutability at lint time.
//
// The serving path of this repo relies on the Velox pattern: a fully built,
// immutable Snapshot is published through an atomic pointer, and readers
// use it without locks. That only works if nothing ever mutates a snapshot
// after publication — an invariant the type system cannot express. This
// analyzer enforces it structurally:
//
//	//cdml:frozen
//
// on a type declaration marks the type as immutable-after-construction.
// The frozen set is then closed over the go/types object graph: every
// named struct type reachable from a frozen type through shared memory —
// pointer, slice, or map fields, at any depth, across packages — is frozen
// too, because mutating it mutates state a published snapshot can see.
// Value-typed struct fields are part of the parent's memory, so writing
// them through a frozen parent is already caught via the parent; the
// closure still descends into them to find deeper pointer fields.
//
//	//cdml:mutable
//
// on a type declaration prunes it (and everything below it) from the
// closure — the escape hatch for types that are reachable from a snapshot
// but internally synchronized (e.g. a stats clock shared with the writer).
//
// A diagnostic fires on any assignment, ++/--, &-escape, or copy/clear
// builtin whose target is reached through frozen memory: walking the access chain from the store
// toward the root, the first pointer/slice/map crossing whose element type
// is frozen owns the written memory. Construction sites are exempt:
// functions named New*/new*, and methods named Clone or Snapshot (the
// repo's copy-on-write vocabulary). Anything else that is deliberate gets
// `//lint:allow snapfreeze: <why>`.
//
// The closure follows struct fields, not interfaces: memory behind an
// interface value — a snapshot's model.Model and its weights — is invisible
// to it, and so is a store through a method call. The weights have their
// own rules (the pin and private-copy rules of core.Snapshot), and the
// check for them is the consistency oracle run under -race
// (core.TestChaosPredictAnswersOneVersion), not this analyzer.
package snapfreeze

import (
	"go/ast"
	"go/types"
	"strings"

	"cdml/internal/analysis"
)

// frozenMarker roots the immutability closure: `//cdml:frozen`.
const frozenMarker = "cdml:frozen"

// mutableMarker prunes a type from the closure: `//cdml:mutable`.
const mutableMarker = "cdml:mutable"

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "snapfreeze",
	Doc: "flags writes to memory reachable from a //cdml:frozen type " +
		"(immutable-after-construction, e.g. published snapshots) outside " +
		"constructors and Clone/Snapshot methods",
	Run: run,
}

func run(pass *analysis.Pass) error {
	frozen, mutable := collectMarked(pass)
	if len(frozen) == 0 {
		return nil
	}
	expand(frozen, mutable)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || exemptFunc(fn) {
				continue
			}
			checkFunc(pass, fn, frozen, mutable)
		}
	}
	return nil
}

// exemptFunc reports whether fn is a construction context: the object under
// construction is not yet published, so field stores are the point.
func exemptFunc(fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") ||
		(fn.Recv != nil && (name == "Clone" || name == "Snapshot"))
}

// collectMarked gathers the annotated type roots from this package and its
// whole in-module dependency closure — a snapshot type annotated in core
// must freeze the pipeline and model types it references even when those
// live in other packages.
func collectMarked(pass *analysis.Pass) (frozen, mutable map[*types.TypeName]bool) {
	frozen = make(map[*types.TypeName]bool)
	mutable = make(map[*types.TypeName]bool)
	scan := func(files []*ast.File, info *types.Info) {
		for _, f := range files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(gd.Specs) == 1 {
						doc = gd.Doc
					}
					isFrozen := analysis.HasMarker(doc, frozenMarker) ||
						analysis.HasMarker(ts.Comment, frozenMarker)
					isMutable := analysis.HasMarker(doc, mutableMarker) ||
						analysis.HasMarker(ts.Comment, mutableMarker)
					if !isFrozen && !isMutable {
						continue
					}
					tn, ok := info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					if isMutable {
						mutable[tn] = true
					} else {
						frozen[tn] = true
					}
				}
			}
		}
	}
	scan(pass.Files, pass.TypesInfo)
	for _, dep := range pass.Deps {
		scan(dep.Files, dep.TypesInfo)
	}
	return frozen, mutable
}

// expand closes the frozen set over shared-memory reachability. The
// traversal descends through value-struct fields (their memory belongs to
// the parent, so they never join the set themselves) and adds every named
// struct type first reached through a pointer, slice, or map layer.
func expand(frozen, mutable map[*types.TypeName]bool) {
	type visit struct {
		tn     *types.TypeName
		shared bool
	}
	seen := make(map[visit]bool)
	var walkType func(t types.Type, shared bool)
	var walkNamed func(tn *types.TypeName, shared bool)

	walkType = func(t types.Type, shared bool) {
		switch u := t.(type) {
		case *types.Named:
			walkNamed(u.Obj(), shared)
			return
		case *types.Alias:
			walkType(types.Unalias(u), shared)
			return
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			walkType(u.Elem(), true)
		case *types.Slice:
			walkType(u.Elem(), true)
		case *types.Map:
			walkType(u.Elem(), true)
		case *types.Array:
			walkType(u.Elem(), shared)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				walkType(u.Field(i).Type(), shared)
			}
		}
	}
	walkNamed = func(tn *types.TypeName, shared bool) {
		if mutable[tn] || seen[visit{tn, shared}] {
			return
		}
		seen[visit{tn, shared}] = true
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			// Named non-structs (slices, maps, basics) contribute through
			// their underlying shape but are not tracked individually.
			walkType(tn.Type().Underlying(), shared)
			return
		}
		if shared {
			frozen[tn] = true
		}
		for i := 0; i < st.NumFields(); i++ {
			// Fields start as value memory of this struct; pointer/slice/map
			// layers inside walkType flip them to shared.
			walkType(st.Field(i).Type(), false)
		}
	}

	for tn := range frozen {
		walkNamed(tn, true)
	}
}

// verdict classifies one pointer/slice/map crossing on the access chain.
type verdict int

const (
	keepWalking  verdict = iota // not a decisive owner, continue toward root
	frozenOwner                 // written memory belongs to a frozen object
	mutableOwner                // written memory belongs to a //cdml:mutable object
)

// ownerVerdict inspects the type of a chain-prefix expression. Pointer,
// slice, and map types are ownership boundaries: the written memory belongs
// to their element object, so a frozen (or mutable) element type decides.
func ownerVerdict(t types.Type, frozen, mutable map[*types.TypeName]bool) verdict {
	if t == nil {
		return keepWalking
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		elem = u.Elem()
	case *types.Slice:
		elem = u.Elem()
	case *types.Map:
		elem = u.Elem()
	default:
		return keepWalking
	}
	return namedVerdict(elem, frozen, mutable)
}

// namedVerdict strips pointer layers and classifies the named type.
func namedVerdict(t types.Type, frozen, mutable map[*types.TypeName]bool) verdict {
	for {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	t = types.Unalias(t)
	named, ok := t.(*types.Named)
	if !ok {
		return keepWalking
	}
	switch {
	case mutable[named.Obj()]:
		return mutableOwner
	case frozen[named.Obj()]:
		return frozenOwner
	}
	return keepWalking
}

// checkFunc flags frozen-memory stores in one function body.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, frozen, mutable map[*types.TypeName]bool) {
	report := func(target ast.Expr, what string) {
		pass.Reportf(target.Pos(), "%s %s reaches //cdml:frozen memory in %s; "+
			"frozen types are immutable after construction — copy-on-write via Clone/Snapshot instead",
			what, exprString(target), fn.Name.Name)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				if frozenStore(pass, lhs, frozen, mutable) {
					report(lhs, "write to")
				}
			}
		case *ast.IncDecStmt:
			if frozenStore(pass, stmt.X, frozen, mutable) {
				report(stmt.X, "write to")
			}
		case *ast.UnaryExpr:
			if stmt.Op.String() == "&" && frozenStore(pass, stmt.X, frozen, mutable) {
				report(stmt.X, "address of")
			}
		case *ast.CallExpr:
			// copy(dst, src) and clear(dst) write dst's elements: the
			// builtins are stores through their first argument.
			if name := builtinName(pass, stmt.Fun); (name == "copy" || name == "clear") && len(stmt.Args) > 0 &&
				frozenStore(pass, stmt.Args[0], frozen, mutable) {
				report(stmt.Args[0], name+" into")
			}
		}
		return true
	})
}

// builtinName returns the name of the builtin fun denotes, or "".
func builtinName(pass *analysis.Pass, fun ast.Expr) string {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// frozenStore walks the access chain of a store target from the store
// toward the root. The first pointer/slice/map crossing with a decisive
// element type wins: frozen flags, mutable clears. Value-struct selectors
// and array indexing stay within the same object's memory and keep walking.
func frozenStore(pass *analysis.Pass, target ast.Expr, frozen, mutable map[*types.TypeName]bool) bool {
	expr := target
	for {
		var base ast.Expr
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
			continue
		case *ast.SelectorExpr:
			base = e.X
		case *ast.IndexExpr:
			base = e.X
		case *ast.StarExpr:
			base = e.X
		default:
			// Root reached: a bare identifier (rebinding a variable, never a
			// frozen-memory store), a call result, or anything else opaque.
			return false
		}
		switch ownerVerdict(pass.TypesInfo.TypeOf(base), frozen, mutable) {
		case frozenOwner:
			return true
		case mutableOwner:
			return false
		}
		expr = base
	}
}

// exprString renders a short chain like d.snap.stats for diagnostics.
func exprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprString(t.X) + "." + t.Sel.Name
	case *ast.IndexExpr:
		return exprString(t.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(t.X)
	case *ast.ParenExpr:
		return exprString(t.X)
	}
	return "expression"
}
