// Package telemetry is FLock's zero-dependency observability subsystem:
// sharded atomic counters, gauges, lock-free power-of-two histograms, and
// a sampled ring-buffer trace of RPC lifecycle events, tied together by a
// Registry with a Snapshot/delta API and JSON encoding.
//
// The design constraint is the hot path: FLock's leader/dispatcher loops
// are allocation-free and race-tested, and instrumentation must not change
// that. Every metric here increments with a single atomic add on
// pre-registered state — metrics are created at node/device/connection
// construction, never lazily on the first RPC — and the trace ring costs
// one atomic load per probe while disabled. The alloc-regression gate at
// the repo root and the counter-overhead gate in this package pin both
// properties in CI.
//
// Relationship to internal/stats: stats.Hist is a precise log-linear
// histogram for single-threaded measurement (benchmark latency reports);
// telemetry.Hist trades resolution for concurrency — power-of-two buckets
// updated lock-free from any goroutine. The live instrumentation uses
// telemetry.Hist everywhere; tools keep stats.Hist for percentile output.
package telemetry

import (
	"sync/atomic"
	"unsafe"
)

// shardCount is the number of padded cells a Counter stripes over. Eight
// covers the concurrency of the hot paths that share one counter (leaders
// on different QPs, dispatchers, the devices' processing units) without
// bloating the many mostly-single-writer counters.
const shardCount = 8

// pad64 is one counter cell padded to a cache line so concurrent writers
// on different shards never false-share.
type pad64 struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing counter striped across padded
// shards. The zero value is ready to use. Inc/Add are wait-free single
// atomic adds; Load sums the shards and may run concurrently with writers
// (it is monotone but not an instantaneous cut, like any striped counter).
type Counter struct {
	shards [shardCount]pad64
}

// shardIndex spreads goroutines across shards. Goroutine stacks are
// distinct allocations spaced far beyond a page apart, so the page bits of
// a stack address distinguish goroutines while staying stable across calls
// from the same frame. The conversion uintptr(unsafe.Pointer(&probe)) is
// address arithmetic only — the pointer is never reconstructed.
func shardIndex() uint64 {
	var probe byte
	return (uint64(uintptr(unsafe.Pointer(&probe))) >> 12) % shardCount
}

// Inc adds one.
func (c *Counter) Inc() { c.shards[shardIndex()].v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.shards[shardIndex()].v.Add(n) }

// Load returns the counter's current total.
func (c *Counter) Load() uint64 {
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous signed value (queue depths, active-QP counts).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
