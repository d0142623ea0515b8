// Package deadexport reports exported identifiers nothing outside their own
// package refers to.
//
// A package under internal/ cannot be imported from outside the module, so
// who uses its exported surface is decidable: an exported top-level function,
// type, variable or constant, or an exported method of an exported type, is
// live when another package of the module — its tests included, as are the
// root facade, cmd/, examples/ and the nested benchmark/ module — names it.
// The package's own tests, in-package or external, do not count. Anything
// else is a finding: unexport it where its own package uses it, delete it
// with its tests where nothing does.
//
// Two kinds of reference need no name. A method is live when its receiver
// (or a pointer to it) implements an interface that asks for it — any
// interface written in the module, any named interface of a standard-library
// package the module imports, however indirectly, and error — because the
// call then goes through the interface (pipeline.Component's Stateless,
// sort.Interface's Less, http.ResponseWriter's WriteHeader). And the nested
// module's files are parsed, not type-checked, so they are read loosely:
// pkg.Name keeps Name of package pkg alive, and any other x.Name keeps every
// method called Name alive.
package deadexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strconv"
	"strings"

	"cdml/internal/analysis"
)

// Analyzer is the deadexport check.
var Analyzer = &analysis.Analyzer{
	Name: "deadexport",
	Doc:  "exported identifiers under internal/ are referenced from outside their own package",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	self := pass.Pkg.Path()
	if pass.Module == nil || !strings.Contains("/"+self+"/", "/internal/") {
		return nil
	}
	asked := methodsAsked(pass.Module)
	// The declarations of this package other units name, by position: an
	// external test package may name them through a second check of the
	// package (analysis.Module).
	used := make(map[token.Pos]bool)
	ours := func(obj types.Object) bool { return obj.Pkg() != nil && obj.Pkg().Path() == self }
	for _, u := range pass.Module.Units {
		if strings.TrimSuffix(u.PkgPath, "_test") == self {
			continue
		}
		for _, obj := range u.TypesInfo.Uses {
			if ours(obj) {
				if f, ok := obj.(*types.Func); ok {
					obj = f.Origin()
				}
				used[obj.Pos()] = true
			}
		}
		// A type is also used by whoever holds a value of it.
		for _, tv := range u.TypesInfo.Types {
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok && ours(n.Obj()) {
				used[n.Origin().Obj().Pos()] = true
			}
		}
	}
	loose := looseRefs(pass.Module.Foreign, self)

	check := func(id *ast.Ident, recv *types.Named) {
		if !id.IsExported() || pass.TypesInfo.Defs[id] == nil || used[id.Pos()] {
			return
		}
		kind, key := "identifier", "."+id.Name
		if recv != nil {
			kind = "method"
			for _, it := range asked[id.Name] {
				if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
					return
				}
			}
		} else {
			key = self + key
		}
		if !loose[key] {
			pass.Reportf(id.Pos(), "exported %s %s is not referenced outside package %s: unexport it, or delete it with its tests", kind, id.Name, pass.Pkg.Name())
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				var recv *types.Named
				if d.Recv != nil {
					t := pass.TypesInfo.TypeOf(d.Recv.List[0].Type)
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					if recv, _ = t.(*types.Named); recv == nil || !recv.Obj().Exported() {
						continue
					}
				}
				check(d.Name, recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, nil)
					case *ast.ValueSpec:
						// A parenthesized const group is one enumeration.
						if d.Tok == token.CONST && d.Lparen.IsValid() && groupUsed(used, d) {
							continue
						}
						for _, id := range s.Names {
							check(id, nil)
						}
					}
				}
			}
		}
	}
	return nil
}

// methodsAsked indexes, by method name, the interfaces that ask for a method:
// every interface type written in the module, every exported named interface
// of the standard-library packages it imports, directly or not, and error.
func methodsAsked(mod *analysis.Module) map[string][]*types.Interface {
	asked := make(map[string][]*types.Interface)
	ask := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				asked[it.Method(i).Name()] = append(asked[it.Method(i).Name()], it)
			}
		}
	}
	ask(types.Universe.Lookup("error").Type())
	seen := make(map[string]bool)
	for _, u := range mod.Units {
		seen[u.Types.Path()] = true // the module's own: their interfaces are read off the syntax
	}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				ask(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, u := range mod.Units {
		for _, imp := range u.Types.Imports() {
			walk(imp)
		}
		for e, tv := range u.TypesInfo.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				ask(tv.Type)
			}
		}
	}
	return asked
}

// groupUsed reports whether any name of the declaration group is used.
func groupUsed(used map[token.Pos]bool, d *ast.GenDecl) bool {
	for _, spec := range d.Specs {
		for _, id := range spec.(*ast.ValueSpec).Names {
			if used[id.Pos()] {
				return true
			}
		}
	}
	return false
}

// looseRefs reads the untyped files: "<pkgpath>.Name" for every selector on
// an import of pkgpath, ".Name" for every other selector.
func looseRefs(files []*ast.File, pkgpath string) map[string]bool {
	refs := make(map[string]bool)
	for _, f := range files {
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == pkgpath {
				if local = path.Base(p); imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					refs[pkgpath+"."+sel.Sel.Name] = true
				} else {
					refs["."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	return refs
}
