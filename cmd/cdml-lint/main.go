// Command cdml-lint is the repo's multichecker: it loads the packages
// matched by its argument patterns (default ./...) and runs the cdml
// analyzers — globalrand, floateq, mustcheck, hotpath, plus the contract
// suite guardedby, snapfreeze, ctxflow, determinism, and the whole-module
// deadexport — over every non-test source file, printing findings as
//
//	path:line:col: message (analyzer)
//
// and exiting 1 when any finding survives //lint:allow suppression.
// Every //lint:allow comment is itself audited (reported as the pseudo
// analyzer "allow"): it must name its analyzers and carry a
// colon-separated reason, so nothing is suppressed without a written why.
// cdml-lint complements `go vet` (which `make lint` runs alongside it);
// together they are the repo's static gate: vet covers the generic
// mistakes, the cdml analyzers cover the determinism, error-handling,
// locking, immutability, context-flow, and hot-path invariants the
// paper's evaluation depends on.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"

	"cdml/internal/analysis"
	"cdml/internal/analysis/ctxflow"
	"cdml/internal/analysis/deadexport"
	"cdml/internal/analysis/determinism"
	"cdml/internal/analysis/floateq"
	"cdml/internal/analysis/globalrand"
	"cdml/internal/analysis/guardedby"
	"cdml/internal/analysis/hotpath"
	"cdml/internal/analysis/mustcheck"
	"cdml/internal/analysis/snapfreeze"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	globalrand.Analyzer,
	floateq.Analyzer,
	mustcheck.Analyzer,
	hotpath.Analyzer,
	guardedby.Analyzer,
	snapfreeze.Analyzer,
	ctxflow.Analyzer,
	determinism.Analyzer,
	deadexport.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cdml-lint [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the cdml static analyzers over the matched packages (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdml-lint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdml-lint:", err)
		os.Exit(2)
	}

	type finding struct {
		pos      string
		message  string
		analyzer string
	}
	var findings []finding
	for _, pkg := range pkgs {
		// The suppression audit runs unconditionally: a reason-less
		// //lint:allow is a lint failure regardless of which analyzers run.
		for _, d := range analysis.CheckAllows(pkg.Fset, pkg.Files) {
			findings = append(findings, finding{
				pos:      relPosition(pkg.Fset.Position(d.Pos)),
				message:  d.Message,
				analyzer: "allow",
			})
		}
		for _, a := range suite {
			diags, err := pkg.Run(a)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cdml-lint:", err)
				os.Exit(2)
			}
			for _, d := range diags {
				findings = append(findings, finding{
					pos:      relPosition(pkg.Fset.Position(d.Pos)),
					message:  d.Message,
					analyzer: a.Name,
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		fmt.Printf("%s: %s (%s)\n", f.pos, f.message, f.analyzer)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "cdml-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// relPosition renders a token position with a working-directory-relative
// filename.
func relPosition(pos token.Position) string {
	rel := pos.Filename
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, pos.Filename); err == nil {
			rel = r
		}
	}
	return fmt.Sprintf("%s:%d:%d", rel, pos.Line, pos.Column)
}

// selectAnalyzers resolves the -run flag against the suite.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range splitComma(only) {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// splitComma splits a comma-separated list, dropping empty fields.
func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
