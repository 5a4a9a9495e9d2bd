package resilience

import (
	"testing"
	"time"

	"flock/internal/stats"
)

func TestBackoffJitterBounds(t *testing.T) {
	cases := []struct {
		name    string
		b       Backoff
		attempt int
		ceil    time.Duration // inclusive upper bound of the draw
	}{
		{"attempt0", Backoff{Base: 100 * time.Microsecond, Cap: time.Millisecond}, 0, 100 * time.Microsecond},
		{"attempt1-doubles", Backoff{Base: 100 * time.Microsecond, Cap: time.Millisecond}, 1, 200 * time.Microsecond},
		{"attempt3", Backoff{Base: 100 * time.Microsecond, Cap: time.Millisecond}, 3, 800 * time.Microsecond},
		{"capped", Backoff{Base: 100 * time.Microsecond, Cap: time.Millisecond}, 10, time.Millisecond},
		{"uncapped", Backoff{Base: time.Microsecond}, 4, 16 * time.Microsecond},
		{"overflow-guard", Backoff{Base: time.Hour}, 64, 1 << 62},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := stats.NewRNG(42)
			for i := 0; i < 1000; i++ {
				d := tc.b.Delay(tc.attempt, rng)
				if d < 0 || d > tc.ceil {
					t.Fatalf("Delay(%d) = %v, want in [0, %v]", tc.attempt, d, tc.ceil)
				}
			}
		})
	}
}

func TestBackoffZeroBase(t *testing.T) {
	rng := stats.NewRNG(1)
	if d := (Backoff{}).Delay(5, rng); d != 0 {
		t.Fatalf("zero-base Delay = %v, want 0", d)
	}
}

func TestBackoffDeterministic(t *testing.T) {
	b := Backoff{Base: 50 * time.Microsecond, Cap: time.Millisecond}
	r1, r2 := stats.NewRNG(7), stats.NewRNG(7)
	for i := 0; i < 64; i++ {
		d1, d2 := b.Delay(i%6, r1), b.Delay(i%6, r2)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, d1, d2)
		}
	}
}

func TestBudgetAccounting(t *testing.T) {
	b := NewBudget(0.1, 3)
	if got := b.Tokens(); got != 3 {
		t.Fatalf("fresh budget Tokens = %v, want 3 (starts full)", got)
	}
	// Drain the burst.
	for i := 0; i < 3; i++ {
		if !b.TryRetry() {
			t.Fatalf("retry %d denied with tokens remaining", i)
		}
	}
	if b.TryRetry() {
		t.Fatal("retry allowed on empty budget")
	}
	if got := b.Denied(); got != 1 {
		t.Fatalf("Denied = %d, want 1", got)
	}
	// Ten successes at ratio 0.1 earn exactly one token.
	for i := 0; i < 9; i++ {
		b.OnSuccess()
		if b.TryRetry() {
			t.Fatalf("retry allowed after only %d successes (%.3f tokens)", i+1, b.Tokens())
		}
	}
	b.OnSuccess()
	if !b.TryRetry() {
		t.Fatalf("retry denied after 10 successes, tokens=%.3f", b.Tokens())
	}
	if got := b.Denied(); got != 10 {
		t.Fatalf("Denied = %d, want 10", got)
	}
}

func TestBudgetBurstCap(t *testing.T) {
	b := NewBudget(1.0, 2)
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("Tokens = %v, want capped at burst 2", got)
	}
}

func TestBudgetNilAndDegenerate(t *testing.T) {
	var nilB *Budget
	if !nilB.TryRetry() {
		t.Fatal("nil budget must always allow retries")
	}
	nilB.OnSuccess() // must not panic

	zero := NewBudget(0, 0) // burst remapped to 1, earns nothing
	if !zero.TryRetry() {
		t.Fatal("burst-1 budget should allow the first retry")
	}
	if zero.TryRetry() {
		t.Fatal("zero-ratio budget must never refill")
	}
	zero.OnSuccess()
	if zero.TryRetry() {
		t.Fatal("zero-ratio budget earned a token from success")
	}
}

func TestDedupWindowLifecycle(t *testing.T) {
	w := NewDedupWindow(4)
	k := DedupKey{Thread: 7, Key: 99}

	if _, out := w.Begin(k); out != DedupExecute {
		t.Fatalf("first Begin = %v, want Execute", out)
	}
	// Duplicate while the original is executing: pushback, never a second run.
	if _, out := w.Begin(k); out != DedupInflight {
		t.Fatalf("concurrent Begin = %v, want Inflight", out)
	}
	w.Commit(k, DedupResult{Status: 0, Data: []byte("pong")})
	res, out := w.Begin(k)
	if out != DedupHit {
		t.Fatalf("post-commit Begin = %v, want Hit", out)
	}
	if string(res.Data) != "pong" {
		t.Fatalf("cached Data = %q, want %q", res.Data, "pong")
	}
	if w.Hits() != 1 || w.Races() != 1 {
		t.Fatalf("Hits=%d Races=%d, want 1/1", w.Hits(), w.Races())
	}
}

func TestDedupWindowEviction(t *testing.T) {
	w := NewDedupWindow(2)
	for i := uint64(0); i < 5; i++ {
		k := DedupKey{Key: i}
		if _, out := w.Begin(k); out != DedupExecute {
			t.Fatalf("Begin(%d) = %v, want Execute", i, out)
		}
		w.Commit(k, DedupResult{Data: []byte{byte(i)}})
	}
	if got := w.Len(); got != 2 {
		t.Fatalf("Len = %d, want capacity 2", got)
	}
	// Oldest entries evicted: retrying key 0 re-executes (outside window).
	if _, out := w.Begin(DedupKey{Key: 0}); out != DedupExecute {
		t.Fatalf("evicted key Begin = %v, want Execute", out)
	}
	// Newest survive.
	if _, out := w.Begin(DedupKey{Key: 4}); out != DedupHit {
		t.Fatalf("resident key Begin = %v, want Hit", out)
	}
}

func TestDedupWindowReservationsNotEvicted(t *testing.T) {
	w := NewDedupWindow(1)
	pending := DedupKey{Key: 100}
	w.Begin(pending) // reservation, never committed yet
	for i := uint64(0); i < 10; i++ {
		k := DedupKey{Key: i}
		w.Begin(k)
		w.Commit(k, DedupResult{})
	}
	// The reservation must still be present: a duplicate sees Inflight.
	if _, out := w.Begin(pending); out != DedupInflight {
		t.Fatalf("reserved key Begin = %v, want Inflight (reservations are never evicted)", out)
	}
	w.Commit(pending, DedupResult{Data: []byte("late")})
	if res, out := w.Begin(pending); out != DedupHit || string(res.Data) != "late" {
		t.Fatalf("late commit lost: out=%v data=%q", out, res.Data)
	}
}

func TestDedupWindowAbort(t *testing.T) {
	w := NewDedupWindow(4)
	k := DedupKey{Key: 1}
	w.Begin(k)
	w.Abort(k)
	if _, out := w.Begin(k); out != DedupExecute {
		t.Fatalf("Begin after Abort = %v, want Execute", out)
	}
	w.Commit(k, DedupResult{})
	w.Abort(k) // aborting a committed entry is a no-op
	if _, out := w.Begin(k); out != DedupHit {
		t.Fatalf("Begin after no-op Abort = %v, want Hit", out)
	}
}

func TestDedupCommitWithoutBegin(t *testing.T) {
	w := NewDedupWindow(4)
	w.Commit(DedupKey{Key: 5}, DedupResult{Data: []byte("orphan")})
	if _, out := w.Begin(DedupKey{Key: 5}); out != DedupExecute {
		t.Fatalf("orphan Commit created an entry: Begin = %v, want Execute", out)
	}
}
