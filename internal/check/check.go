// Package check is FLock's concurrency-correctness harness. It has two
// parts:
//
//   - A linearizability checker (this file): the Wing & Gong algorithm
//     with Lowe's just-in-time memoization and P-compositional
//     partitioning, in the style of porcupine. Histories of concurrent
//     operations, recorded from real traffic with a Recorder, are checked
//     against a sequential model.
//   - Ready-made models (models.go) for the workloads the repository
//     serves: the echo RPC, the kvstore put/get contract, and fetch-add
//     counters.
//
// The harness is validated on the code that ships: known-bad variants of
// the combining path (internal/core) and of the replica plane
// (internal/cluster), compiled in behind the `flockmut` build tag, must
// each be rejected by a scenario whose history this checker judges or
// whose handler executions it counts, so a blind checker fails CI rather
// than silently passing broken code.
package check

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Infinity is the return timestamp of a pending operation: one whose
// caller never observed a response (timeout, broken QP, crash). A pending
// operation may take effect at any point after its call — or never, which
// the checker represents by linearizing it after every completed
// operation, where no later observation can contradict it. Models must
// accept a nil Output for pending operations (the result is unknown).
const Infinity int64 = math.MaxInt64

// Operation is one invocation/response pair in a history. Call and Return
// are timestamps from any strictly monotonic clock shared by all
// recorders; only their order matters, not their units.
type Operation struct {
	// ClientID identifies the calling thread; operations of one client
	// must not overlap in time.
	ClientID int
	// Input is the invocation (model-defined).
	Input interface{}
	// Output is the response (model-defined); nil for pending operations.
	Output interface{}
	// Call is the invocation timestamp.
	Call int64
	// Return is the response timestamp, or Infinity for pending
	// operations.
	Return int64
}

// Model is a sequential specification. The checker searches for a total
// order of the history's operations that respects real time and in which
// every Step is legal.
type Model struct {
	// Name labels the model in reports.
	Name string
	// Init returns the initial state.
	Init func() interface{}
	// Step applies one operation to state: it reports whether output is a
	// legal response to input in that state, and the resulting state.
	// Step must be pure — same inputs, same results — and must tolerate a
	// nil output (pending operation, unknown result) by returning the
	// state the input alone produces.
	Step func(state, input, output interface{}) (bool, interface{})
	// Equal compares states for the memoization cache; nil means ==
	// (states must then be comparable).
	Equal func(a, b interface{}) bool
	// Partition splits a history into independently-checkable
	// sub-histories (P-compositionality: a history is linearizable iff
	// every per-key sub-history is). Nil checks the whole history at once.
	Partition func(ops []Operation) [][]Operation
	// Describe renders an operation for failure reports; nil falls back
	// to %v formatting.
	Describe func(op Operation) string
}

func (m Model) describe(op Operation) string {
	if m.Describe != nil {
		return m.Describe(op)
	}
	return fmt.Sprintf("in=%v out=%v", op.Input, op.Output)
}

func (m Model) equal(a, b interface{}) bool {
	if m.Equal != nil {
		return m.Equal(a, b)
	}
	return a == b
}

// Result is the checker's verdict on one history.
type Result struct {
	// Ok reports linearizability. When TimedOut is set the search was
	// abandoned and Ok is conservatively true (no violation found).
	Ok bool
	// TimedOut reports that the search exceeded its deadline.
	TimedOut bool
	// Partitions is how many sub-histories were checked.
	Partitions int
	// FailedPartition describes the first non-linearizable sub-history:
	// its operations in call order, for the failure report.
	FailedPartition []Operation
	// model retained for String.
	model Model
}

// String renders a human-readable verdict, including the failing
// sub-history when there is one.
func (r Result) String() string {
	if r.Ok {
		if r.TimedOut {
			return fmt.Sprintf("%s: no violation found (search timed out, %d partitions)", r.model.Name, r.Partitions)
		}
		return fmt.Sprintf("%s: linearizable (%d partitions)", r.model.Name, r.Partitions)
	}
	s := fmt.Sprintf("%s: NOT linearizable; failing sub-history (%d ops, call order):\n", r.model.Name, len(r.FailedPartition))
	for _, op := range r.FailedPartition {
		ret := fmt.Sprintf("%d", op.Return)
		if op.Return == Infinity {
			ret = "pending"
		}
		s += fmt.Sprintf("  client %d  [%d,%s]  %s\n", op.ClientID, op.Call, ret, r.model.Describe(op))
	}
	return s
}

// Check tests whether history is linearizable with respect to model, with
// no time bound.
func Check(model Model, history []Operation) Result {
	return CheckTimeout(model, history, 0)
}

// CheckTimeout is Check bounded by a wall-clock budget (0 = unbounded).
// On timeout the result reports Ok=true, TimedOut=true: no violation was
// found within budget.
func CheckTimeout(model Model, history []Operation, timeout time.Duration) Result {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	parts := [][]Operation{history}
	if model.Partition != nil {
		parts = model.Partition(history)
	}
	res := Result{Ok: true, Partitions: len(parts), model: model}
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		ok, timedOut := linearizable(model, part, deadline)
		if timedOut {
			res.TimedOut = true
		}
		if !ok {
			res.Ok = false
			res.FailedPartition = sortedByCall(part)
			return res
		}
	}
	return res
}

func sortedByCall(ops []Operation) []Operation {
	out := make([]Operation, len(ops))
	copy(out, ops)
	sort.Slice(out, func(i, j int) bool { return out[i].Call < out[j].Call })
	return out
}

// entry is one event (call or return) on the checker's doubly linked list.
type entry struct {
	op         int // index into ops
	isReturn   bool
	match      *entry // call's return entry (nil on return entries)
	prev, next *entry
}

// makeEntries builds the event list: calls and returns ordered by
// timestamp, returns of pending operations placed after everything else.
func makeEntries(ops []Operation) *entry {
	type ev struct {
		t        int64
		tie      int // returns sort after calls at equal timestamps
		op       int
		isReturn bool
	}
	evs := make([]ev, 0, 2*len(ops))
	for i, op := range ops {
		evs = append(evs, ev{t: op.Call, tie: 0, op: i})
		evs = append(evs, ev{t: op.Return, tie: 1, op: i, isReturn: true})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].tie < evs[j].tie
	})
	head := &entry{op: -1} // sentinel
	cur := head
	calls := make(map[int]*entry, len(ops))
	for _, e := range evs {
		ent := &entry{op: e.op, isReturn: e.isReturn, prev: cur}
		cur.next = ent
		cur = ent
		if e.isReturn {
			calls[e.op].match = ent
		} else {
			calls[e.op] = ent
		}
	}
	return head
}

// lift removes a call entry and its matching return from the list.
func lift(call *entry) {
	call.prev.next = call.next
	call.next.prev = call.prev
	ret := call.match
	ret.prev.next = ret.next
	if ret.next != nil {
		ret.next.prev = ret.prev
	}
}

// unlift restores a lifted call/return pair.
func unlift(call *entry) {
	ret := call.match
	ret.prev.next = ret
	if ret.next != nil {
		ret.next.prev = ret
	}
	call.prev.next = call
	call.next.prev = call
}

// bitset tracks which operations have been linearized.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)     { b[i/64] |= 1 << (uint(i) % 64) }
func (b bitset) clear(i int)   { b[i/64] &^= 1 << (uint(i) % 64) }
func (b bitset) clone() bitset { c := make(bitset, len(b)); copy(c, b); return c }
func (b bitset) equals(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

func (b bitset) hash() uint64 {
	h := uint64(1469598103934665603)
	for _, w := range b {
		h ^= w
		h *= 1099511628211
	}
	return h
}

// cacheEntry memoizes a (linearized-set, state) configuration already
// proven unextendable, so the DFS never re-explores it (Lowe's
// optimization of Wing & Gong).
type cacheEntry struct {
	set   bitset
	state interface{}
}

// linearizable runs the memoized DFS on one sub-history. It returns
// (ok, timedOut).
func linearizable(model Model, ops []Operation, deadline time.Time) (bool, bool) {
	head := makeEntries(ops)
	n := len(ops)
	linearized := newBitset(n)
	cache := make(map[uint64][]cacheEntry)
	seen := func(set bitset, state interface{}) bool {
		h := set.hash()
		for _, e := range cache[h] {
			if e.set.equals(set) && model.equal(e.state, state) {
				return true
			}
		}
		cache[h] = append(cache[h], cacheEntry{set: set.clone(), state: state})
		return false
	}

	type frame struct {
		entry *entry
		state interface{}
	}
	var stack []frame
	state := model.Init()
	ent := head.next
	steps := 0
	for head.next != nil {
		steps++
		if steps%4096 == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return true, true
		}
		if ent == nil || ent.isReturn {
			// Hit a return of an op we haven't linearized (or exhausted the
			// window): backtrack.
			if len(stack) == 0 {
				return false, false
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			state = f.state
			linearized.clear(f.entry.op)
			unlift(f.entry)
			ent = f.entry.next
			continue
		}
		op := ops[ent.op]
		ok, next := model.Step(state, op.Input, op.Output)
		if ok {
			linearized.set(ent.op)
			if !seen(linearized, next) {
				stack = append(stack, frame{entry: ent, state: state})
				lift(ent)
				state = next
				ent = head.next
				continue
			}
			linearized.clear(ent.op)
		}
		ent = ent.next
	}
	return true, false
}
