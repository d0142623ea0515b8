package engine

import (
	"bytes"
	"runtime"
	"testing"
)

func TestNewDefaults(t *testing.T) {
	e := New(0)
	if e.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers = %d", e.Workers())
	}
	if New(3).Workers() != 3 {
		t.Fatal("explicit workers ignored")
	}
}

// goroutineID reads the running goroutine's id off its stack header
// ("goroutine 17 [running]:"); tests only.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}
