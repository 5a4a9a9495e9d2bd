package resilience

import (
	"bytes"
	"testing"
)

// TestDedupWindowOwnsItsStorage: the window keeps its entries by value, its
// commit order in a ring and its results in copies of its own, with the
// semantics of a FIFO of completed keys — eviction order survives the ring's
// wrap, reservations are never evicted, any result length round-trips, a
// caller may reuse its buffer once Commit returns, and a keyed request costs
// the window no allocation.
func TestDedupWindowOwnsItsStorage(t *testing.T) {
	key := func(i uint64) DedupKey { return DedupKey{Thread: 3, Key: i} }
	begin := func(t *testing.T, w *DedupWindow, k DedupKey, want DedupOutcome) DedupResult {
		t.Helper()
		res, out := w.Begin(k)
		if out != want {
			t.Fatalf("Begin(%d) = %v, want %v", k.Key, out, want)
		}
		return res
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"eviction-order-across-the-wrap", func(t *testing.T) {
			w := NewDedupWindow(3)
			for i := uint64(0); i < 10; i++ {
				begin(t, w, key(i), DedupExecute)
				w.Commit(key(i), DedupResult{Data: []byte{byte(i)}})
				if i >= 3 {
					// The oldest completed key is the one that just left.
					begin(t, w, key(i-3), DedupExecute)
					w.Abort(key(i - 3))
				}
				for j := i - min(i, 2); j <= i; j++ {
					if res := begin(t, w, key(j), DedupHit); !bytes.Equal(res.Data, []byte{byte(j)}) {
						t.Fatalf("after commit %d: key %d replays %v", i, j, res.Data)
					}
				}
			}
			if got := w.Len(); got != 3 {
				t.Fatalf("Len = %d, want 3", got)
			}
		}},
		{"reservation-survives-eviction", func(t *testing.T) {
			w := NewDedupWindow(3)
			begin(t, w, key(100), DedupExecute)
			for i := uint64(0); i < 10; i++ {
				begin(t, w, key(i), DedupExecute)
				w.Commit(key(i), DedupResult{})
			}
			begin(t, w, key(100), DedupInflight)
			w.Commit(key(100), DedupResult{Status: 9, Data: []byte("late")})
			if res := begin(t, w, key(100), DedupHit); res.Status != 9 || string(res.Data) != "late" {
				t.Fatalf("late commit replays (%d, %q)", res.Status, res.Data)
			}
		}},
		{"100-byte-result-round-trips", func(t *testing.T) {
			w := NewDedupWindow(4)
			data := bytes.Repeat([]byte("0123456789"), 10)
			begin(t, w, key(1), DedupExecute)
			w.Commit(key(1), DedupResult{Status: 5, Data: data})
			if res := begin(t, w, key(1), DedupHit); res.Status != 5 || !bytes.Equal(res.Data, data) {
				t.Fatalf("replayed (%d, %q)", res.Status, res.Data)
			}
		}},
		{"window-owns-its-copy", func(t *testing.T) {
			w := NewDedupWindow(4)
			for i, n := range []int{12, dedupInline, dedupInline + 1, 100} {
				buf := bytes.Repeat([]byte{'a'}, n)
				begin(t, w, key(uint64(i)), DedupExecute)
				w.Commit(key(uint64(i)), DedupResult{Data: buf})
				for j := range buf {
					buf[j] = 'z'
				}
				if res := begin(t, w, key(uint64(i)), DedupHit); !bytes.Equal(res.Data, bytes.Repeat([]byte{'a'}, n)) {
					t.Fatalf("%d-byte result: the caller's overwrite reached the window: %q", n, res.Data)
				}
			}
		}},
		{"begin-commit-allocates-nothing", func(t *testing.T) {
			w := NewDedupWindow(64)
			res := DedupResult{Data: make([]byte, 12)}
			next := uint64(0)
			keyed := func() {
				next++
				w.Begin(key(next))
				w.Commit(key(next), res)
			}
			for i := 0; i < 1000; i++ {
				keyed()
			}
			if got := testing.AllocsPerRun(1000, keyed); got != 0 {
				t.Fatalf("Begin+Commit of a 12-byte result allocates %.2f", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
