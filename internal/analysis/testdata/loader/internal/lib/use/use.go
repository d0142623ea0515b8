// Package use imports the package under test; only that package's external
// tests call it.
package use

import "loaderfixture/internal/lib"

// Twice returns t twice.
func Twice(t lib.T) []lib.T { return []lib.T{t, t} }
