package deadexport_test

import (
	"testing"

	"cdml/internal/analysis"
	"cdml/internal/analysis/analysistest"
	"cdml/internal/analysis/deadexport"
)

func TestDeadExport(t *testing.T) {
	analysistest.Run(t, "../testdata/src/deadexport/internal", deadexport.Analyzer)
}

// use.Twice is called only by another package's external test, which the
// loader checks against a second check of use (analysis.Module): the call
// keeps it alive all the same.
func TestDeadExportCountsExternalTestsOfAnotherPackage(t *testing.T) {
	pkgs, err := analysis.Load("../testdata/loader", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if p.PkgPath != "loaderfixture/internal/lib/use" {
			continue
		}
		diags, err := p.Run(deadexport.Analyzer)
		if err != nil || len(diags) != 0 {
			t.Fatalf("deadexport over %s: %v (err %v), want nothing", p.PkgPath, diags, err)
		}
		return
	}
	t.Fatal("the fixture has no package use")
}
