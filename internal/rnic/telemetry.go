package rnic

import (
	"sync/atomic"

	"flock/internal/telemetry"
)

// PublishTelemetry registers snapshot-time views of the device's counters
// under prefix (e.g. "rnic."). The device's hot-path accounting is
// untouched — the processing unit keeps writing its own atomics and the
// registry reads them when a snapshot is taken.
func (d *Device) PublishTelemetry(reg *telemetry.Registry, prefix string) {
	cf := func(name string, f *uint64) {
		reg.CounterFunc(prefix+name, func() uint64 { return atomic.LoadUint64(f) })
	}
	c := &d.counters
	cf("doorbells", &c.Doorbells)
	cf("work_requests", &c.WorkRequests)
	cf("processed", &c.Processed)
	cf("foreign_doorbells", &c.ForeignDoorbells)
	cf("deferred_rings", &c.DeferredRings)
	cf("cache_hits", &c.CacheHits)
	cf("cache_misses", &c.CacheMisses)
	cf("pcie_fetch_ns", &c.PCIeFetchNanos)
	cf("mr_lookups", &c.MRLookups)
	cf("completions_delivered", &c.CompletionsDelivered)
	cf("completions_suppressed", &c.CompletionsSuppressed)
	cf("packets_tx", &c.PacketsTX)
	cf("bytes_tx", &c.BytesTX)
	cf("ud_drops_no_recv", &c.UDDropsNoRecv)
	cf("ud_drops_wire", &c.UDDropsWire)
	cf("ud_corrupted", &c.UDCorrupted)
	cf("rnr_waits", &c.RNRWaits)
	cf("atomic_ops", &c.AtomicOps)
	cf("rc_retransmits", &c.RCRetransmits)
	cf("rc_retry_exhausted", &c.RCRetryExhausted)
	cf("wr_flushed", &c.WRFlushed)

	reg.CounterFunc(prefix+"cache_evictions", func() uint64 {
		_, _, ev := d.cache.stats()
		return ev
	})
	reg.GaugeFunc(prefix+"cache_resident", func() int64 {
		return int64(d.cache.len())
	})
	reg.GaugeFunc(prefix+"qps", func() int64 {
		return int64(d.NumQPs())
	})
}
