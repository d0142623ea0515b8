package data

import (
	"errors"
	"testing"
)

var errFlaky = errors.New("transient backend failure")

func TestFaultFailNCountsDown(t *testing.T) {
	fb := NewFaultBackend(NewMemoryBackend())
	fb.FailN(OpPutRaw, 2, errFlaky)

	for i := 0; i < 2; i++ {
		if err := fb.PutRaw(RawChunk{ID: Timestamp(i)}); !errors.Is(err, errFlaky) {
			t.Fatalf("call %d: want injected error, got %v", i, err)
		}
	}
	if err := fb.PutRaw(RawChunk{ID: 2}); err != nil {
		t.Fatalf("failpoint still armed after budget: %v", err)
	}
}

func TestFaultOpScoping(t *testing.T) {
	fb := NewFaultBackend(NewMemoryBackend())
	fb.FailN(OpGetFeatures, 1, errFlaky)

	// Other ops are untouched.
	if err := fb.PutRaw(RawChunk{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fb.PutFeatures(FeatureChunk{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.GetFeatures(1); !errors.Is(err, errFlaky) {
		t.Fatalf("scoped op not injected: %v", err)
	}
	if _, err := fb.GetFeatures(1); err != nil {
		t.Fatalf("injection did not expire: %v", err)
	}
}

func TestFaultOpAllMatchesEverything(t *testing.T) {
	fb := NewFaultBackend(NewMemoryBackend())
	fb.FailN(opAll, 2, errFlaky)
	if err := fb.PutRaw(RawChunk{ID: 1}); !errors.Is(err, errFlaky) {
		t.Fatalf("put: %v", err)
	}
	if _, err := fb.GetRaw(1); !errors.Is(err, errFlaky) {
		t.Fatalf("get: %v", err)
	}
	if err := fb.PutRaw(RawChunk{ID: 1}); err != nil {
		t.Fatalf("budget shared across ops should be spent: %v", err)
	}
}

func TestFaultRateIsSeededDeterministic(t *testing.T) {
	outcomes := func() []bool {
		fb := NewFaultBackend(NewMemoryBackend())
		fb.failRate(OpPutRaw, 0.5, errFlaky, 7)
		var got []bool
		for i := 0; i < 64; i++ {
			got = append(got, fb.PutRaw(RawChunk{ID: Timestamp(i)}) != nil)
		}
		return got
	}
	a, b := outcomes(), outcomes()
	failed := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded fail-rate not deterministic at call %d", i)
		}
		if a[i] {
			failed++
		}
	}
	if failed == 0 || failed == len(a) {
		t.Fatalf("fail-rate 0.5 produced %d/%d failures", failed, len(a))
	}
}

func TestFaultResetDisarms(t *testing.T) {
	fb := NewFaultBackend(NewMemoryBackend())
	fb.FailN(opAll, 100, errFlaky)
	fb.Reset()
	if err := fb.PutRaw(RawChunk{ID: 1}); err != nil {
		t.Fatalf("Reset left failpoints armed: %v", err)
	}
}
