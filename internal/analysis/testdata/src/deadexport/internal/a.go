// Package lib is the deadexport fixture. Its directory is named internal
// because that is where the analyzer looks; user/ is the other package.
package lib

import "sort"

func Dead() {} // want `exported identifier Dead is not referenced outside package lib`

// OnlyTested is named by user/user_test.go and by nothing else.
func OnlyTested() T { return T{} }

type T struct{}

func (T) DeadMethod() {} // want `exported method DeadMethod is not referenced outside package lib`

// Area is asked for by an interface of the module, Len, Less and Swap by one
// of the standard library.
func (T) Area() float64      { return 0 }
func (T) Len() int           { return 0 }
func (T) Less(i, j int) bool { return false }
func (T) Swap(i, j int)      {}

type shape interface{ Area() float64 }

var (
	_ shape          = T{}
	_ sort.Interface = T{}
)

//lint:allow deadexport: the fixture's suppressed finding
func Allowed() {}

// One name of a const group in use keeps the enumeration whole.
const (
	ModeA = iota
	ModeB
)

const Alone = 1 // want `exported identifier Alone`
