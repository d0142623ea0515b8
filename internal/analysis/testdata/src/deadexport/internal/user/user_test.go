package user_test

import (
	"testing"

	lib "fixture/internal"
)

// TestUser holds a lib.T without naming it: that keeps the type alive.
func TestUser(t *testing.T) {
	if v := lib.OnlyTested(); v.Len() != lib.ModeA {
		t.Fatal(v)
	}
}
