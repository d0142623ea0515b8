// Package analysis is the repo's static-analysis layer: a self-contained
// reimplementation of the slice of golang.org/x/tools/go/analysis that the
// cdml analyzers need (the module deliberately has no external dependencies,
// so vendoring x/tools is not an option). It mirrors the upstream API shape —
// Analyzer, Pass, Diagnostic — so the analyzers under internal/analysis/...
// can be ported to the real framework verbatim if the dependency policy ever
// changes.
//
// The analyzers enforce the invariants the paper's evaluation rests on:
//
//   - globalrand: every random draw goes through an explicitly seeded
//     *rand.Rand, keeping deployment runs bit-reproducible (§5).
//   - floateq: prequential-error math never compares floats with == / !=
//     outside tests.
//   - mustcheck: persistence-path errors (Load/Close/Encode/Decode, the
//     calls state moves through, ...) are never silently discarded.
//   - hotpath: functions annotated //cdml:hotpath stay free of allocation-
//     and syscall-bearing constructs, protecting the 0 allocs/op contract of
//     the serving benchmarks statically.
//
// And the contract analyzers, which verify at lint time the concurrency and
// determinism invariants the compiler cannot see:
//
//   - guardedby: fields annotated //cdml:guardedby <mu> are only touched by
//     functions that acquire the named mutex (Abseil GUARDED_BY style).
//   - snapfreeze: nothing reachable from a //cdml:frozen type (the published
//     core.Snapshot graph) is written — assigned, ++/--, address taken,
//     copy/clear into — outside constructors/Clone/Snapshot.
//   - ctxflow: request/tick paths never detach from their context via
//     context.Background()/TODO() or context-detaching wrappers.
//   - determinism: //cdml:deterministic functions (the training step's
//     Gradient/Apply chain) avoid map iteration, wall clocks, and global
//     rand — transitively, across packages.
//
// And one about the module as a whole:
//
//   - deadexport: an exported identifier under internal/ is named by some
//     other package, binary, example or benchmark — or it is unexported or
//     gone.
//
// Suppression: a `//lint:allow <name>: <why>` comment on the offending line
// (or on the line directly above it) silences one analyzer for that line.
// The reason after the colon is mandatory — CheckAllows, run by cdml-lint
// over every package, reports bare or reason-less suppressions as findings
// of their own.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. Run inspects a fully type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer; it is the key accepted by //lint:allow.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions of Files.
	Fset *token.FileSet
	// Files are the parsed (with comments) source files of the package,
	// excluding _test.go files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds expression types and identifier resolutions.
	TypesInfo *types.Info
	// Deps exposes the in-module dependency closure (syntax + types, same
	// FileSet) so analyzers can propagate annotation facts across package
	// boundaries — e.g. "is this imported function //cdml:deterministic",
	// "does this imported wrapper detach its context". Nil entries never
	// occur; the map may be empty (fixture packages, leaf packages).
	Deps map[string]*Package
	// Module is the whole module the package was loaded with (see
	// Package.Module); nil when the package was built by hand.
	Module *Module

	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the offending syntax.
	Pos token.Pos
	// Message states the violation and the remedy.
	Message string
}

// Reportf records one diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Run executes analyzer a over the package, applies //lint:allow
// suppression, and returns the surviving diagnostics in position order.
func (pkg *Package) Run(a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Deps:      pkg.Deps,
		Module:    pkg.Module,
		report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
	}
	diags = suppress(pkg.Fset, pkg.Files, a.Name, diags)
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
