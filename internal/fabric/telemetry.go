package fabric

import "flock/internal/telemetry"

// PublishTelemetry registers snapshot-time views of the fabric's wire and
// fault-injection counters under prefix (e.g. "fabric."). This folds the
// formerly ad-hoc FaultCounters/Totals reporting into the telemetry
// registry; the counters are read only when a snapshot is taken.
func (f *Fabric) PublishTelemetry(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+"packets", func() uint64 { return f.Totals().Packets })
	reg.CounterFunc(prefix+"bytes", func() uint64 { return f.Totals().Bytes })
	reg.CounterFunc(prefix+"dropped", func() uint64 { return f.Totals().Dropped })
	reg.CounterFunc(prefix+"rc_dropped", func() uint64 { return f.FaultCounters().RCDropped })
	reg.CounterFunc(prefix+"rc_delayed", func() uint64 { return f.FaultCounters().RCDelayed })
	reg.CounterFunc(prefix+"corrupted", func() uint64 { return f.FaultCounters().Corrupted })
	reg.CounterFunc(prefix+"link_down_drops", func() uint64 { return f.FaultCounters().LinkDownDrops })
}
