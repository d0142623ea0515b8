// Package guardedby verifies lock discipline at lint time — the Abseil
// GUARDED_BY annotation, enforced over the go/types object graph.
//
// A struct field annotated
//
//	//cdml:guardedby <mu>
//
// (doc comment or trailing line comment; <mu> names a sibling sync.Mutex or
// sync.RWMutex field) may only be read or written by functions that acquire
// that mutex somewhere in their body: Lock for writes, Lock or RLock for
// reads. The check is flow-insensitive by design — it asks "does any path
// acquire the guard", which catches the dangerous class of method that
// never locks at all, while `go test -race` remains the dynamic backstop
// for path-sensitive races on exercised paths.
//
// Three access contexts are exempt:
//
//   - constructors (function names starting with New/new): the object is
//     unpublished, no other goroutine can hold a reference;
//   - functions annotated `//cdml:locked <mu>` — the documented contract
//     that the caller provides the critical section (or an equivalent
//     external serialization, e.g. a single-threaded driver);
//   - functions whose name ends in "Locked" — the repo's naming convention
//     for caller-holds-the-lock helpers.
//
// Acquisition through `defer mu.Unlock()` works naturally: the analyzer
// keys on the Lock/RLock call, not the unlock.
//
// Anything else that is deliberate gets `//lint:allow guardedby: <why>`.
package guardedby

import (
	"go/ast"
	"go/types"
	"strings"

	"cdml/internal/analysis"
)

// marker is the field annotation: `//cdml:guardedby <mu>`.
const marker = "cdml:guardedby"

// lockedMarker is the function annotation asserting the caller provides the
// named guard's critical section: `//cdml:locked <mu>`.
const lockedMarker = "cdml:locked"

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "flags reads/writes of //cdml:guardedby-annotated struct fields in " +
		"functions that never acquire the named mutex (Lock for writes, " +
		"Lock/RLock for reads)",
	Run: run,
}

// guardInfo ties one annotated field to its guard.
type guardInfo struct {
	guard     *types.Var // the sibling mutex field
	guardName string     // its declared name (for messages and //cdml:locked)
	rw        bool       // guard is a sync.RWMutex (RLock satisfies reads)
}

func run(pass *analysis.Pass) error {
	guarded := collectGuarded(pass)
	if len(guarded) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn, guarded)
		}
	}
	return nil
}

// markerArg returns the first whitespace-delimited argument after marker in
// the comment text, or "" when the comment does not carry the marker.
func markerArg(c *ast.Comment, marker string) (string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, marker) {
		return "", false
	}
	rest := strings.TrimSpace(text[len(marker):])
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", true
	}
	return fields[0], true
}

// collectGuarded scans the package's struct declarations for annotated
// fields, resolving each to (field object → guard object). Malformed
// annotations (missing or non-mutex guard) are reported immediately.
func collectGuarded(pass *analysis.Pass) map[*types.Var]guardInfo {
	guarded := make(map[*types.Var]guardInfo)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				guardName, ok := fieldAnnotation(field)
				if !ok {
					continue
				}
				if guardName == "" {
					pass.Reportf(field.Pos(), "//cdml:guardedby needs a guard field name")
					continue
				}
				guard, rw, ok := findGuard(pass, st, guardName)
				if !ok {
					pass.Reportf(field.Pos(),
						"//cdml:guardedby %s: no sibling sync.Mutex/sync.RWMutex field named %q", guardName, guardName)
					continue
				}
				for _, name := range field.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guarded[obj] = guardInfo{guard: guard, guardName: guardName, rw: rw}
					}
				}
			}
			return true
		})
	}
	return guarded
}

// fieldAnnotation extracts the guard name from a field's doc or trailing
// comment; ok reports whether the marker is present at all.
func fieldAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if arg, ok := markerArg(c, marker); ok {
				return arg, true
			}
		}
	}
	return "", false
}

// findGuard resolves guardName to a mutex-typed field of the same struct.
func findGuard(pass *analysis.Pass, st *ast.StructType, guardName string) (*types.Var, bool, bool) {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != guardName {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				return nil, false, false
			}
			kind := mutexKind(obj.Type())
			if kind == notMutex {
				return nil, false, false
			}
			return obj, kind == rwMutex, true
		}
		// Embedded mutex: the implicit field name is the type name.
		if len(field.Names) == 0 {
			if id := embeddedName(field.Type); id != nil && id.Name == guardName {
				if obj, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
					if kind := mutexKind(obj.Type()); kind != notMutex {
						return obj, kind == rwMutex, true
					}
				}
			}
		}
	}
	return nil, false, false
}

// embeddedName returns the identifier naming an embedded field.
func embeddedName(expr ast.Expr) *ast.Ident {
	switch t := expr.(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	}
	return nil
}

type mutexKindT int

const (
	notMutex mutexKindT = iota
	plainMutex
	rwMutex
)

// mutexKind classifies a (possibly pointer-to) sync mutex type.
func mutexKind(t types.Type) mutexKindT {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return notMutex
	}
	switch named.Obj().Name() {
	case "Mutex":
		return plainMutex
	case "RWMutex":
		return rwMutex
	}
	return notMutex
}

// lockedGuards returns the guard names a function's doc comment asserts are
// held by the caller (//cdml:locked <mu>, one per line).
func lockedGuards(fn *ast.FuncDecl) map[string]bool {
	if fn.Doc == nil {
		return nil
	}
	var held map[string]bool
	for _, c := range fn.Doc.List {
		if arg, ok := markerArg(c, lockedMarker); ok && arg != "" {
			if held == nil {
				held = make(map[string]bool)
			}
			held[arg] = true
		}
	}
	return held
}

// checkFunc flags guarded-field accesses in one function that lacks the
// required acquisition.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl, guarded map[*types.Var]guardInfo) {
	name := fn.Name.Name
	if strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") ||
		strings.HasSuffix(name, "Locked") {
		return
	}
	held := lockedGuards(fn)

	// Pass 1: which guards does the body acquire, and how.
	exclusive := make(map[*types.Var]bool) // guard → Lock seen
	shared := make(map[*types.Var]bool)    // guard → RLock seen
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		guard := guardObj(pass, sel.X)
		if guard == nil {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "TryLock":
			exclusive[guard] = true
		case "RLock", "TryRLock":
			shared[guard] = true
		}
		return true
	})

	// Pass 2: which guarded-field selectors sit inside a write.
	writes := make(map[ast.Node]bool)
	markWrites := func(lhs ast.Expr) {
		ast.Inspect(lhs, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				writes[sel] = true
			}
			return true
		})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				markWrites(lhs)
			}
		case *ast.IncDecStmt:
			markWrites(stmt.X)
		case *ast.UnaryExpr:
			if stmt.Op.String() == "&" {
				// Taking a guarded field's address leaks writable access.
				markWrites(stmt.X)
			}
		}
		return true
	})

	// Pass 3: flag unprotected accesses.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok {
			return true
		}
		gi, ok := guarded[obj]
		if !ok {
			return true
		}
		if held[gi.guardName] {
			return true
		}
		if writes[sel] {
			if !exclusive[gi.guard] {
				pass.Reportf(sel.Pos(),
					"write to %s (guarded by %s) without %s.Lock() on any path in %s",
					obj.Name(), gi.guardName, gi.guardName, name)
			}
			return true
		}
		if !exclusive[gi.guard] && !shared[gi.guard] {
			pass.Reportf(sel.Pos(),
				"read of %s (guarded by %s) without %s.Lock() on any path in %s",
				obj.Name(), gi.guardName, gi.guardName, name)
		}
		return true
	})
}

// guardObj resolves the expression x of an x.Lock() call to an annotated
// guard field object (d.mu → the mu field var), or nil.
func guardObj(pass *analysis.Pass, x ast.Expr) *types.Var {
	switch t := x.(type) {
	case *ast.SelectorExpr:
		if v, ok := pass.TypesInfo.Uses[t.Sel].(*types.Var); ok && mutexKind(v.Type()) != notMutex && v.IsField() {
			return v
		}
	case *ast.Ident:
		// Embedded mutex promoted through the receiver (rare) or a local
		// mutex — only field objects count as guards.
		if v, ok := pass.TypesInfo.Uses[t].(*types.Var); ok && mutexKind(v.Type()) != notMutex && v.IsField() {
			return v
		}
	}
	return nil
}
