// Package resilience is the overload-control toolkit threaded through
// internal/core: client-side retry policies (exponential backoff with full
// jitter, token-bucket retry budgets) and the
// server-side idempotent-response dedup window that makes those retries
// safe. Everything here is deterministic given a seeded RNG or an
// injected clock, so the policies are unit-testable without wall time.
//
// The package deliberately knows nothing about QPs, rings, or the wire
// format — core wires the policies into its paths and maps their outcomes
// onto typed errors (ErrOverloaded, ErrDraining).
package resilience

import (
	"time"

	"flock/internal/stats"
)

// Backoff computes retry delays: exponential growth from Base doubling per
// attempt, capped at Cap, with "full jitter" — the delay is drawn
// uniformly from [0, cappedExponential] so synchronized clients that
// failed together do not retry together (the thundering-herd fix the AWS
// architecture blog popularized).
type Backoff struct {
	// Base is the attempt-0 ceiling. Must be > 0 for Delay to be nonzero.
	Base time.Duration
	// Cap bounds the exponential growth; 0 means no cap.
	Cap time.Duration
}

// Delay returns the sleep before retry number attempt (0-based: the delay
// between the first failure and the second try is attempt 0). rng supplies
// the jitter; the same seed yields the same schedule.
func (b Backoff) Delay(attempt int, rng *stats.RNG) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	d := b.Base
	for i := 0; i < attempt; i++ {
		d *= 2
		if d <= 0 || (b.Cap > 0 && d >= b.Cap) {
			d = b.Cap
			if d <= 0 {
				d = 1 << 62 // uncapped overflow guard
			}
			break
		}
	}
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	// Full jitter: uniform in [0, d]. Inclusive of d, exclusive of 0 only
	// when d is 0 — a zero draw is a legitimate immediate retry.
	return time.Duration(rng.Uint64n(uint64(d) + 1))
}
