package resilience

import "sync"

// DedupKey identifies one logical RPC across retries: the sender's thread
// ID plus the per-thread idempotency key carried in the wire metadata.
type DedupKey struct {
	Thread uint32
	Key    uint64
}

// DedupResult is a response: the status and its payload. Commit copies the
// payload; the Data a hit returns is the window's and must not be written.
type DedupResult struct {
	Status uint32
	Data   []byte
}

// DedupOutcome classifies a Begin call.
type DedupOutcome int

const (
	// DedupExecute: the key is new and now reserved; the caller must run
	// the handler and Commit (or Abort on the way out of a dying server).
	DedupExecute DedupOutcome = iota
	// DedupHit: the original already executed; respond with the cached
	// result instead of running the handler again.
	DedupHit
	// DedupInflight: another worker is executing this key right now. The
	// caller must not execute a second copy; it answers with a retryable
	// pushback and the client's next retry finds the committed result.
	DedupInflight
)

// DedupWindow is the bounded server-side response cache that makes client
// retries exactly-once within the window: a retried RPC whose original
// executed returns the cached response rather than re-executing. Entries
// are keyed by (thread, idempotency key); completed entries are evicted
// FIFO once the window exceeds its capacity. Reservations (in-flight
// executions) never block and are never evicted, which keeps the
// guarantee that two executions of one key cannot be concurrent.
//
// The window owns its storage: entries live by value in the map, the commit
// order in a ring of capacity keys, and a result of up to dedupInline bytes
// inside its entry, so a Begin and Commit pair allocates nothing in steady
// state. A longer result takes one heap copy, and a hit on an inline one
// copies it out.
type DedupWindow struct {
	mu      sync.Mutex
	entries map[DedupKey]dedupEntry
	ring    []DedupKey // completed keys in commit order: n of them from ring[head]
	head, n int
	hits    uint64
	races   uint64
}

// dedupInline is the longest result an entry holds in place: the size of
// core's reply buffer, which the cluster's acks fit.
const dedupInline = 24

type dedupEntry struct {
	done   bool
	n      uint8 // bytes of inline in use when heap is nil
	status uint32
	inline [dedupInline]byte
	heap   []byte
}

// NewDedupWindow returns a window caching up to capacity completed
// responses; capacity ≤ 0 is remapped to 1.
func NewDedupWindow(capacity int) *DedupWindow {
	return &DedupWindow{
		entries: make(map[DedupKey]dedupEntry),
		ring:    make([]DedupKey, max(capacity, 1)),
	}
}

// Begin looks up k, reserving it for execution when absent. The outcome
// tells the caller whether to execute, replay the cached result, or push
// back on a racing duplicate.
func (w *DedupWindow) Begin(k DedupKey) (DedupResult, DedupOutcome) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.entries[k]; ok {
		if !e.done {
			w.races++
			return DedupResult{}, DedupInflight
		}
		w.hits++
		data := e.heap
		if data == nil && e.n > 0 {
			data = append([]byte(nil), e.inline[:e.n]...)
		}
		return DedupResult{Status: e.status, Data: data}, DedupHit
	}
	w.entries[k] = dedupEntry{}
	return DedupResult{}, DedupExecute
}

// Commit publishes the result of a reservation made by Begin, copying
// res.Data, and evicts the oldest completed entry beyond capacity.
func (w *DedupWindow) Commit(k DedupKey, res DedupResult) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.entries[k]
	if !ok || e.done {
		return
	}
	e.done, e.status = true, res.Status
	if len(res.Data) <= dedupInline {
		e.n = uint8(copy(e.inline[:], res.Data))
	} else {
		e.heap = append([]byte(nil), res.Data...)
	}
	w.entries[k] = e
	if w.n == len(w.ring) {
		delete(w.entries, w.ring[w.head])
		w.ring[w.head] = k
		w.head = (w.head + 1) % len(w.ring)
		return
	}
	w.ring[(w.head+w.n)%len(w.ring)] = k
	w.n++
}

// Abort drops a reservation without committing (server shutting down
// between Begin and Commit), so a later retry can execute.
func (w *DedupWindow) Abort(k DedupKey) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.entries[k]; ok && !e.done {
		delete(w.entries, k)
	}
}

// Hits reports replayed responses; Races reports in-flight duplicate
// pushbacks. Len reports resident entries (observability/tests).
func (w *DedupWindow) Hits() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hits
}

// Races reports Begin calls that found the key still executing.
func (w *DedupWindow) Races() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.races
}

// Len reports resident entries, reservations included.
func (w *DedupWindow) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.entries)
}
