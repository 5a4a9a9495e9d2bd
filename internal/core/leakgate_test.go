package core

import (
	"fmt"
	"os"
	"testing"
	"time"

	"flock/internal/mem"
)

// TestMain is the pool leak gate: after every test in the package has run
// — including the chaos and fault suites, whose QP recycles, stale drops
// and deadline abandonments exercise every lease hand-off path —
// the default pool must report zero outstanding leases. A nonzero count
// means some path lost track of a buffer: the lease either leaked (held
// forever) or was dropped without Release (won't recycle). Both regress
// the zero-allocation hot path silently, which is exactly what this gate
// exists to catch.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if n := awaitLeaseDrain(3 * time.Second); n != 0 {
			fmt.Fprintf(os.Stderr, "leak gate: %d pooled buffer leases still outstanding after all tests\n", n)
			code = 1
		}
	}
	os.Exit(code)
}

// awaitLeaseDrain polls the default pool until Outstanding hits zero or
// the timeout expires, returning the final count. Polling (rather than a
// single read) tolerates releases that trail test completion: background
// recyclers and device pipelines may still be flushing pooled WRs when the
// last test returns.
func awaitLeaseDrain(timeout time.Duration) int64 {
	deadline := time.Now().Add(timeout)
	for {
		n := mem.Default.Outstanding()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}
