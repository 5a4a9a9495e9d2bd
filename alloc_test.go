package flock_test

// Allocation-regression gate for the pooled hot path. The zero-copy
// refactor took the synchronous echo exchange from 17 allocs/op down to 2;
// this test pins a ceiling so a change that quietly reintroduces
// per-message allocation fails CI rather than showing up later as GC
// pressure under load.

import (
	"testing"

	"flock"
	"flock/internal/loadgen"
)

// allocCeiling is the allowed allocations per echo Call+Release.
// Measured steady state is 2 allocs/op; the ceiling leaves headroom for
// mallocs by the dispatcher/server goroutines that AllocsPerRun's
// process-wide counting attributes to the loop, while staying far below
// the pre-pool 17.
const allocCeiling = 8

func TestEchoAllocRegressionGate(t *testing.T) {
	star, err := loadgen.NewStar(flock.Options{}, flock.Options{}, 1, 0, loadgen.Echo)
	if err != nil {
		t.Fatal(err)
	}
	defer star.Close()
	th := star.Conns[0].RegisterThread()
	payload := make([]byte, 64)

	// Warm the pool free lists and the connection's scratch buffers so the
	// measured window is steady state, not first-touch growth.
	for i := 0; i < 200; i++ {
		r, err := th.Call(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}

	avg := testing.AllocsPerRun(500, func() {
		r, err := th.Call(1, payload)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	})
	t.Logf("echo allocs/op: %.2f (ceiling %d)", avg, allocCeiling)
	if avg > allocCeiling {
		t.Fatalf("allocation regression: %.2f allocs per echo exchange, ceiling %d — the pooled hot path is leaking allocations",
			avg, allocCeiling)
	}
}
