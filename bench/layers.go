package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"flock/internal/telemetry"
)

// The per-layer counters come from outside the program too: the delta of
// Network.TelemetrySnapshot() over the traced phase, and the client
// node's TraceRing, switched on for that phase and read out while it
// runs.

// traceSample keeps one request lifecycle in 64, the library's default.
const traceSample = 64

// layerProbe observes the traced phase.
type layerProbe struct {
	r      *rig
	before telemetry.Snapshot
	delta  regView
	active float64 // core.active_qps at the end of the phase

	stages     traceStages
	pendingMax int64
	quit       chan struct{}
	done       sync.WaitGroup
}

// startLayerProbe snapshots the registries, switches the client's trace
// ring on and starts the goroutine that reads it out. The ring holds 4096
// events and a busy workload fills it in under 10 ms, so the reader takes
// what it can get every 20 ms: stage times are a sample, not a census.
func startLayerProbe(r *rig) *layerProbe {
	lp := &layerProbe{r: r, quit: make(chan struct{})}
	lp.before = r.nw.TelemetrySnapshot()
	r.client.Trace().Enable(traceSample)
	lp.done.Add(1)
	go func() {
		defer lp.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var seenTS int64
		for {
			select {
			case <-lp.quit:
				return
			case <-tick.C:
			}
			seenTS = lp.stages.feed(r.client.Trace().Events(), seenTS)
			if r.replLogPending != nil {
				lp.pendingMax = max(lp.pendingMax, r.replLogPending())
			}
		}
	}()
	return lp
}

// stop ends the observation. The ring stays on for the ladder phase: the
// rungs are measured under the same tracing cost as the counters.
func (lp *layerProbe) stop() {
	close(lp.quit)
	lp.done.Wait()
	after := lp.r.nw.TelemetrySnapshot()
	lp.active = newRegView(after).gauge("core.active_qps")
	lp.delta = newRegView(after.Delta(lp.before))
}

// metrics turns the phase's deltas into the per-layer values; tr is the
// load the callers recorded over the same windows.
func (lp *layerProbe) metrics(tr *summary) map[string]float64 {
	d := lp.delta
	ops, puts, gets := float64(tr.ops), float64(tr.puts), float64(tr.gets)
	perOp := func(name string) float64 { return ratio(d.counter(name), ops) }
	perK := func(name string) float64 { return 1e3 * ratio(d.counter(name), ops) }
	delivered, suppressed := d.counter("rnic.completions_delivered"), d.counter("rnic.completions_suppressed")
	hits, misses := d.counter("rnic.cache_hits"), d.counter("rnic.cache_misses")
	flush := d.hist("cluster.repl_flush_ns")
	return map[string]float64{
		"core.coalesce_degree_out":        ratio(d.counter("core.items_out"), d.counter("core.msgs_out")),
		"core.coalesce_degree_in":         ratio(d.counter("core.items_in"), d.counter("core.msgs_in")),
		"core.msgs_per_op":                perOp("core.msgs_out"),
		"core.leader_tenure_us_p50":       float64(d.hist("core.leader_tenure_ns").Quantile(0.5)) / 1e3,
		"core.enqueue_to_dispatch_us_p50": lp.stages.enqueueToDispatch.quantile(0.5) / 1e3,
		"core.combine_to_post_us_p50":     lp.stages.combineToPost.quantile(0.5) / 1e3,
		"core.post_to_complete_us_p50":    lp.stages.postToComplete.quantile(0.5) / 1e3,
		"core.dispatch_to_release_us_p50": lp.stages.dispatchToRelease.quantile(0.5) / 1e3,
		"core.credit_renewals_per_kop":    perK("core.credit_renewals"),
		"core.credit_withheld_per_kop":    perK("core.credit_withheld"),
		"core.active_qps":                 lp.active,
		"core.thread_migrations":          d.counter("core.thread_migrations"),
		"core.qp_redistributions":         d.counter("core.qp_redistributions"),
		"core.leader_stalls":              d.counter("core.leader_stalls"),
		"core.rpc_rejected":               d.counter("core.rpc_rejected"),
		"core.rpc_timeouts":               d.counter("core.rpc_timeouts"),
		"core.retries":                    d.counter("core.retries"),
		"core.stale_drops":                d.counter("core.stale_drops"),

		"rnic.doorbells_per_op":     perOp("rnic.doorbells"),
		"rnic.work_requests_per_op": perOp("rnic.work_requests"),
		"rnic.packets_tx_per_op":    perOp("rnic.packets_tx"),
		"rnic.bytes_tx_per_op":      perOp("rnic.bytes_tx"),
		"rnic.signaled_share":       ratio(delivered, delivered+suppressed),
		"rnic.cache_hit_rate":       ratio(hits, hits+misses),
		"rnic.mr_lookups_per_op":    perOp("rnic.mr_lookups"),
		"rnic.rc_retransmits":       d.counter("rnic.rc_retransmits"),
		"rnic.rnr_waits":            d.counter("rnic.rnr_waits"),

		"fabric.packets_per_op":              perOp("fabric.packets"),
		"fabric.wire_bytes_per_payload_byte": ratio(d.counter("fabric.bytes"), float64(tr.payload)),
		"fabric.dropped":                     d.counter("fabric.dropped"),

		"mem.pool_gets_per_op": perOp("mem.pool_gets"),
		"mem.pool_hit_rate":    ratio(d.counter("mem.pool_hits"), d.counter("mem.pool_gets")),

		"cluster.redirects_per_kop":       perK("cluster.wrong_shard_redirects"),
		"cluster.repl_forwards_per_put":   ratio(d.counter("cluster.replica_forwards"), puts),
		"cluster.repl_batch_entries_mean": d.hist("cluster.repl_batch_entries").Mean(),
		"cluster.repl_flush_us_p50":       float64(flush.Quantile(0.5)) / 1e3,
		"cluster.repl_flush_us_p99":       float64(flush.Quantile(0.99)) / 1e3,
		"cluster.read_gate_waits_per_get": ratio(d.counter("cluster.read_gate_waits"), gets),
		"cluster.repl_log_pending_max":    float64(lp.pendingMax),
	}
}

// regView reads a network-wide snapshot by metric name: the value is the
// sum over the network registry and every node's ("node<id>." prefix).
type regView struct {
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]telemetry.HistSnapshot
}

// baseName strips the "node<id>." prefix TelemetrySnapshot adds.
func baseName(name string) string {
	if strings.HasPrefix(name, "node") {
		if dot := strings.IndexByte(name, '.'); dot > 0 {
			return name[dot+1:]
		}
	}
	return name
}

func newRegView(s telemetry.Snapshot) regView {
	v := regView{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]telemetry.HistSnapshot{},
	}
	for name, c := range s.Counters {
		v.counters[baseName(name)] += float64(c)
	}
	for name, g := range s.Gauges {
		v.gauges[baseName(name)] += float64(g)
	}
	for name, h := range s.Hists {
		base := baseName(name)
		v.hists[base] = mergeHists(v.hists[base], h)
	}
	return v
}

func (v regView) counter(name string) float64             { return v.counters[name] }
func (v regView) gauge(name string) float64               { return v.gauges[name] }
func (v regView) hist(name string) telemetry.HistSnapshot { return v.hists[name] }

// mergeHists adds two snapshots of same-shaped histograms bucket by
// bucket. The registry's buckets are powers of two, so a quantile read
// off the result is the upper edge of its octave.
func mergeHists(a, b telemetry.HistSnapshot) telemetry.HistSnapshot {
	out := telemetry.HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	byLe := map[uint64]uint64{}
	for _, bk := range a.Buckets {
		byLe[bk.Le] += bk.N
	}
	for _, bk := range b.Buckets {
		byLe[bk.Le] += bk.N
	}
	for le, n := range byLe {
		out.Buckets = append(out.Buckets, telemetry.HistBucket{Le: le, N: n})
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Le < out.Buckets[j].Le })
	return out
}

// traceStages follows sampled requests through the ring and times the
// gaps between their lifecycle events.
type traceStages struct {
	enqueueToDispatch latHist
	combineToPost     latHist
	postToComplete    latHist
	dispatchToRelease latHist
}

// chain is one sampled request on its way through the client.
type chain struct {
	enqueue, combine, post int64
}

type chainKey struct {
	thread uint32
	seq    uint64
}

// feed walks one read-out of the ring, oldest event first, and records
// the stages of every request whose dispatch is newer than seenTS (so a
// request that two read-outs both contain counts once). It returns the
// newest timestamp it saw. A request is attributed to the first message
// its QP's leader combines after the enqueue and to the response message
// that completed last before its dispatch; the single dispatcher
// goroutine makes the second exact and the first nearly so.
func (ts *traceStages) feed(events []telemetry.TraceEvent, seenTS int64) int64 {
	open := map[chainKey]*chain{}
	waitCombine := map[int][]*chain{}
	waitPost := map[int][]*chain{}
	dispatched := map[uint64]int64{}
	var lastComplete int64
	newest := seenTS
	for _, ev := range events {
		newest = max(newest, ev.TS)
		switch ev.Kind {
		case telemetry.EvEnqueue:
			c := &chain{enqueue: ev.TS}
			open[chainKey{ev.Thread, ev.Seq}] = c
			waitCombine[ev.QP] = append(waitCombine[ev.QP], c)
		case telemetry.EvCombine:
			for _, c := range waitCombine[ev.QP] {
				c.combine = ev.TS
			}
			waitPost[ev.QP] = append(waitPost[ev.QP], waitCombine[ev.QP]...)
			waitCombine[ev.QP] = nil
		case telemetry.EvPost:
			for _, c := range waitPost[ev.QP] {
				c.post = ev.TS
			}
			waitPost[ev.QP] = nil
		case telemetry.EvComplete:
			lastComplete = ev.TS
		case telemetry.EvDispatch:
			k := chainKey{ev.Thread, ev.Seq}
			c := open[k]
			delete(open, k)
			dispatched[ev.Seq] = ev.TS
			if c == nil || c.post == 0 || lastComplete < c.post || ev.TS <= seenTS {
				continue
			}
			ts.enqueueToDispatch.record(uint64(ev.TS - c.enqueue))
			ts.combineToPost.record(uint64(c.post - c.combine))
			ts.postToComplete.record(uint64(lastComplete - c.post))
		case telemetry.EvRelease:
			// Release events carry the sequence number only; two threads
			// at the same number are told apart by taking the latest.
			if at, ok := dispatched[ev.Seq]; ok && ev.TS > seenTS {
				ts.dispatchToRelease.record(uint64(ev.TS - at))
				delete(dispatched, ev.Seq)
			}
		}
	}
	return newest
}
