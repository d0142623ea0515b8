// Package lib is the loader fixture's package under test.
package lib

// T is what the fixture's packages hand each other.
type T struct{ n int }

// New returns a T.
func New() T { return T{n: 1} }

func secret(t T) int { return t.n }
