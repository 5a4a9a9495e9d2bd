// Package sim is a deterministic discrete-event simulation engine with a
// virtual nanosecond clock. The benchmark models in internal/model use it
// to regenerate the paper's figures: every contention effect the paper
// measures (server CPU saturation, NIC pipeline thrashing, head-of-line
// blocking, queueing-driven tail latency) is reproduced by explicit
// resources with FCFS queues rather than by wall-clock measurement, so
// results are exact, fast, and independent of the build machine.
package sim

// Time is virtual nanoseconds since simulation start.
type Time uint64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// event is one scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal timestamps
	fn  func()
}

// before is the event order: time, then FIFO among equal timestamps. It
// is total (seq is unique), so any correct heap replays the same run.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap on a value slice. It is hand-written
// because container/heap boxes every event into an interface on push and
// on pop, an allocation each way in the inner loop of every model run.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the closure so the backing array does not pin it
	q = q[:n]
	i := 0
	for {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && q[l].before(&q[least]) {
			least = l
		}
		if r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Engine is the event loop. Not safe for concurrent use: models run on one
// goroutine (determinism is the point).
type Engine struct {
	heap eventHeap
	now  Time
	seq  uint64
	nRun uint64
}

// New returns an engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have run (a progress/cost metric).
func (e *Engine) Processed() uint64 { return e.nRun }

// At schedules fn at absolute time t (>= Now; earlier times run "now").
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.heap.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Step runs the next event; false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap.pop()
	e.now = ev.at
	e.nRun++
	ev.fn()
	return true
}

// RunUntil processes events until the clock passes t or the queue drains.
func (e *Engine) RunUntil(t Time) {
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Drain runs every remaining event.
func (e *Engine) Drain() {
	for e.Step() {
	}
}

// Resource is a k-unit FCFS service center: the model for server CPU
// cores, NIC processing units, and link serialization. Use acquires a
// unit for a duration and runs a completion callback; waiters queue in
// arrival order.
type Resource struct {
	eng   *Engine
	units int
	busy  int

	// Waiters are a ring: qlen entries starting at queue[qhead].
	queue []pending
	qhead int
	qlen  int

	// Accounting for utilization reports.
	busyTime Time
	served   uint64
}

type pending struct {
	dur  Time
	done func()
}

// NewResource creates a resource with the given unit count.
func NewResource(eng *Engine, units int) *Resource {
	if units < 1 {
		units = 1
	}
	return &Resource{eng: eng, units: units}
}

// Units returns the unit count.
func (r *Resource) Units() int { return r.units }

// QueueLen returns the number of waiting requests.
func (r *Resource) QueueLen() int { return r.qlen }

// Served returns how many requests completed service.
func (r *Resource) Served() uint64 { return r.served }

// BusyTime returns the cumulative busy unit-time (divide by units × span
// for utilization).
func (r *Resource) BusyTime() Time { return r.busyTime }

// Use requests dur of service; done runs at service completion. FCFS.
func (r *Resource) Use(dur Time, done func()) {
	if r.busy < r.units {
		r.start(dur, done)
		return
	}
	if r.qlen == len(r.queue) {
		grown := make([]pending, max(4, 2*len(r.queue)))
		n := copy(grown, r.queue[r.qhead:])
		copy(grown[n:], r.queue[:r.qhead])
		r.queue, r.qhead = grown, 0
	}
	r.queue[(r.qhead+r.qlen)%len(r.queue)] = pending{dur: dur, done: done}
	r.qlen++
}

// start begins service immediately.
func (r *Resource) start(dur Time, done func()) {
	r.busy++
	r.busyTime += dur
	r.served++
	r.eng.After(dur, func() {
		r.busy--
		if r.qlen > 0 {
			p := r.queue[r.qhead]
			r.queue[r.qhead] = pending{}
			r.qhead = (r.qhead + 1) % len(r.queue)
			r.qlen--
			r.start(p.dur, p.done)
		}
		if done != nil {
			done()
		}
	})
}
