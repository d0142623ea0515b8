package lib_test

import (
	"testing"

	"loaderfixture/internal/lib"
	"loaderfixture/internal/lib/use"
)

// TestSecret calls what export_test.go declares on T values a package that
// imports lib hands it.
func TestSecret(t *testing.T) {
	for _, v := range use.Twice(lib.New()) {
		if lib.Secret(v) != 1 {
			t.Fatal(v)
		}
	}
}
