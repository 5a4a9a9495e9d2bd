// Package mem provides a slab-style pool of refcounted, lease-tracked
// byte buffers for the FLock hot path.
//
// Every layer of the request/response path used to allocate per message:
// the software RNIC gathered scatter lists into a fresh []byte per work
// request, the ring consumer decoded into fresh slices, and the
// dispatcher/server copied each item into yet another allocation before
// handing it to the application. Under flockload-style traffic that made
// Go GC pressure — not the modeled NIC — the scaling bottleneck, exactly
// the failure mode FLock's QP sharing is meant to avoid (§4–§5 keep
// per-message CPU flat as threads grow). The pool gives those layers
// recycled, size-classed buffers with explicit lease accounting so the
// steady state allocates nothing.
//
// Ownership model: Get returns a Buf with one reference held by the
// caller. Retain adds a reference for each additional holder; Release
// drops one, and the last Release returns the buffer to its size-class
// free list. Releasing more times than retained panics (a double-release
// would let two leases share bytes — the worst kind of corruption to
// debug). Outstanding counts live leases for the leak gates in the core
// test suites.
package mem

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"flock/internal/telemetry"
)

// Size classes are powers of two from minClass (64 B — below that the Buf
// header dominates) to maxClass (2 MiB — the ring size ceiling). Requests
// above maxClass fall back to direct allocation and are not recycled.
const (
	minShift = 6  // 64 B
	maxShift = 21 // 2 MiB
	classes  = maxShift - minShift + 1

	// freeListCap bounds each class's free list so a burst doesn't pin
	// memory forever; beyond it, released buffers go back to the GC.
	freeListCap = 64
)

// Buf is one pooled buffer lease. The zero value is not useful; obtain
// one from Pool.Get. A Buf must not be used after its final Release.
type Buf struct {
	pool  *Pool
	data  []byte // full class-sized backing array
	n     int    // requested length; Data returns data[:n]
	class int    // size class index, -1 for direct (non-recycled) allocs
	refs  atomic.Int32
}

// Data returns the buffer contents sized to the Get request. The slice
// remains valid until the final Release; views handed to other holders
// must be covered by a Retain.
func (b *Buf) Data() []byte { return b.data[:b.n] }

// Retain adds a reference for a new holder of the buffer.
func (b *Buf) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("mem: Retain after final Release")
	}
}

// Release drops one reference; the final Release recycles the buffer.
// Releasing an already-free Buf panics.
func (b *Buf) Release() {
	refs := b.refs.Add(-1)
	if refs < 0 {
		panic("mem: double Release")
	}
	if refs == 0 {
		b.pool.put(b)
	}
}

// Pool is a set of size-classed free lists. The zero value is not ready;
// use NewPool or the package-level Default.
type Pool struct {
	classes     [classes]freeList
	outstanding atomic.Int64
	// gets and hits are telemetry counters (sharded, padded) because every
	// dispatcher, server thread, and device processing unit bump them on each
	// lease — a single atomic here bounces one cache line across all of
	// them.
	gets telemetry.Counter
	hits telemetry.Counter
}

type freeList struct {
	mu   sync.Mutex
	bufs []*Buf
}

// NewPool creates an empty pool; free lists fill as leases are released.
func NewPool() *Pool { return &Pool{} }

// Default is the process-wide pool used by the FLock hot path.
var Default = NewPool()

// Get leases a buffer of at least n bytes from the default pool.
func Get(n int) *Buf { return Default.Get(n) }

// classFor maps a request size to its size class, or -1 for direct alloc.
func classFor(n int) int {
	if n > 1<<maxShift {
		return -1
	}
	if n <= 1<<minShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minShift
}

// Get leases a buffer of at least n bytes. The returned Buf carries one
// reference owned by the caller; its Data() has length exactly n. The
// contents are NOT zeroed — callers that need zeros must clear or fully
// overwrite it (every hot-path user writes the full payload).
func (p *Pool) Get(n int) *Buf {
	if n < 0 {
		panic(fmt.Sprintf("mem: Get(%d)", n))
	}
	p.gets.Add(1)
	p.outstanding.Add(1)
	class := classFor(n)
	if class < 0 {
		// Oversized: direct allocation, returned to the GC on Release.
		b := &Buf{pool: p, data: make([]byte, n), n: n, class: -1}
		b.refs.Store(1)
		return b
	}
	fl := &p.classes[class]
	fl.mu.Lock()
	if last := len(fl.bufs) - 1; last >= 0 {
		b := fl.bufs[last]
		fl.bufs[last] = nil
		fl.bufs = fl.bufs[:last]
		fl.mu.Unlock()
		p.hits.Add(1)
		b.n = n
		b.refs.Store(1)
		return b
	}
	fl.mu.Unlock()
	b := &Buf{pool: p, data: make([]byte, 1<<(class+minShift)), n: n, class: class}
	b.refs.Store(1)
	return b
}

// put recycles a fully released buffer onto its class free list.
func (p *Pool) put(b *Buf) {
	p.outstanding.Add(-1)
	if b.class < 0 {
		return // oversized; let the GC have it
	}
	fl := &p.classes[b.class]
	fl.mu.Lock()
	if len(fl.bufs) < freeListCap {
		fl.bufs = append(fl.bufs, b)
	}
	fl.mu.Unlock()
}

// Outstanding reports live leases: Gets minus final Releases. The core
// test suites use it as a leak gate after draining.
func (p *Pool) Outstanding() int64 { return p.outstanding.Load() }

// Stats reports cumulative pool activity.
func (p *Pool) Stats() Stats {
	return Stats{
		Gets:        p.gets.Load(),
		Hits:        p.hits.Load(),
		Outstanding: p.outstanding.Load(),
	}
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Gets        uint64 // total leases handed out
	Hits        uint64 // leases served from a free list (no allocation)
	Outstanding int64  // live leases right now
}

// classLen reports the current free-list occupancy of one size class.
func (p *Pool) classLen(class int) int {
	fl := &p.classes[class]
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return len(fl.bufs)
}

// PublishTelemetry registers snapshot-time views of the pool under prefix
// (e.g. "mem."): cumulative gets/hits, the hit rate in percent, live
// leases, and per-size-class free-list occupancy. The pool's write paths
// are untouched.
func (p *Pool) PublishTelemetry(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+"pool_gets", p.gets.Load)
	reg.CounterFunc(prefix+"pool_hits", p.hits.Load)
	reg.GaugeFunc(prefix+"outstanding", p.outstanding.Load)
	reg.GaugeFunc(prefix+"pool_hit_rate_pct", func() int64 {
		gets := p.gets.Load()
		if gets == 0 {
			return 0
		}
		return int64(p.hits.Load() * 100 / gets)
	})
	for class := 0; class < classes; class++ {
		class := class
		name := fmt.Sprintf("%sclass_%db_free", prefix, 1<<(class+minShift))
		reg.GaugeFunc(name, func() int64 { return int64(p.classLen(class)) })
	}
}
