package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"flock/internal/cluster"
	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/kvstore"
	"flock/internal/mem"
	"flock/internal/rnic"
)

// The layer ladder attributes latency from outside the program: the
// prober times calls into each layer's public functions, one more layer
// per rung, while the rest of the workload's load keeps running. A
// layer's self time is its rung minus the rung below it.

// rung is one timed call. perUnit is the nanoseconds in the rung's
// reporting unit (1 for ns, 1000 for us). Samples are kept per window so
// that a rung is reduced the way the end-to-end latencies are.
type rung struct {
	name    string
	perUnit float64
	do      func() error
	hists   map[int]*latHist
}

// prober cycles through its rungs, one call per cycle, so every rung
// sees the same mix of load over the phase.
type prober struct {
	rungs     []*rung
	clockNS   float64
	next      int
	attempted uint64
	failed    uint64
	closers   []func()
}

func (p *prober) add(name string, do func() error) {
	perUnit := 1e3
	if strings.HasSuffix(name, "_ns") {
		perUnit = 1
	}
	p.rungs = append(p.rungs, &rung{name: name, perUnit: perUnit, do: do, hists: map[int]*latHist{}})
}

// cycle makes one call of the next rung and files it under window w.
func (p *prober) cycle(w int) {
	r := p.rungs[p.next]
	p.next = (p.next + 1) % len(p.rungs)
	t0 := time.Now()
	err := r.do()
	d := float64(time.Since(t0)) - p.clockNS
	p.attempted++
	if err != nil {
		p.failed++
		return
	}
	h := r.hists[w]
	if h == nil {
		h = &latHist{}
		r.hists[w] = h
	}
	h.record(uint64(max(d, 0)))
}

func (p *prober) close() {
	for _, c := range p.closers {
		c()
	}
}

// metrics returns every rung's p50 (per window of the ladder phase, then
// the quiet decile over the windows) and the self times derived from them.
func (p *prober) metrics(ladder phase) map[string]float64 {
	rungs := map[string]float64{}
	for _, r := range p.rungs {
		var p50s []float64
		for w := ladder.first; w <= ladder.last(); w++ {
			if h := r.hists[w]; h != nil {
				p50s = append(p50s, h.quantile(0.5)/r.perUnit)
			}
		}
		rungs[r.name] = quantileOf(p50s, quietShare)
	}
	for k, v := range ladderSelf(rungs) {
		rungs[k] = v
	}
	return rungs
}

// ladderSelf subtracts neighbouring rungs. A rung the workload does not
// have (absent or 0) makes the self times that need it 0, not negative.
func ladderSelf(r map[string]float64) map[string]float64 {
	sub := func(upper, lower string) float64 {
		if r[upper] == 0 || r[lower] == 0 {
			return 0
		}
		return r[upper] - r[lower]
	}
	return map[string]float64{
		"core.memop_self_us":  sub(rungReadRTT, rungRnicSelf),
		"core.rpc_self_us":    sub(rungEchoInline, rungReadRTT),
		"core.worker_self_us": sub(rungEchoWorker, rungEchoInline),
		// The put's self time includes the wait for its replication batch.
		"cluster.service_get_self_us": sub(rungDirectGet, rungEchoWorker),
		"cluster.service_put_self_us": sub(rungDirectPut, rungEchoWorker),
		"cluster.router_self_us":      (sub(rungRouterGet, rungDirectGet) + sub(rungRouterPut, rungDirectPut)) / 2,
	}
}

// Node IDs of the prober's raw device pair; no workload uses them.
const (
	probeDevA fabric.NodeID = 200
	probeDevB fabric.NodeID = 201
)

// addLocalRungs adds the rungs that touch no network: the buffer pool and
// a bench-owned kvstore.
func (p *prober) addLocalRungs(size int) error {
	p.add(rungMemGetRelease, func() error {
		mem.Get(size).Release()
		return nil
	})
	const capacity = 1024
	st, err := kvstore.New(kvstore.NewMem(kvstore.ArenaSize(capacity, 8)), capacity, 8)
	if err != nil {
		return err
	}
	var v uint64
	p.add(rungKVUpdate, func() error {
		v++
		_, err := st.UpdateMax64(v%64, v)
		return err
	})
	p.add(rungKVGet, func() error {
		if _, ok := st.Value64(v % 64); !ok {
			return errors.New("kvstore: key missing")
		}
		return nil
	})
	return nil
}

// addRnicRung adds the bare device round trip: two devices of the
// prober's own on the workload's fabric, one signalled RDMA write, one
// completion polled off the send CQ.
func (p *prober) addRnicRung(fab *fabric.Fabric) error {
	a, err := rnic.NewDevice(fab, rnic.Config{Node: probeDevA})
	if err != nil {
		return err
	}
	p.closers = append(p.closers, a.Close)
	b, err := rnic.NewDevice(fab, rnic.Config{Node: probeDevB})
	if err != nil {
		return err
	}
	p.closers = append(p.closers, b.Close)
	qa, _, err := rnic.ConnectPair(a, b, rnic.RC)
	if err != nil {
		return err
	}
	target, err := b.RegisterMR(64, rnic.PermRemoteWrite)
	if err != nil {
		return err
	}
	payload := make([]byte, 64)
	var comp [1]rnic.Completion
	p.add(rungRnicSelf, func() error {
		err := qa.PostSend(rnic.SendWR{
			Op: rnic.OpWrite, Inline: payload, RKey: target.RKey(), Signaled: true,
		})
		if err != nil {
			return err
		}
		for qa.SendCQ().Poll(comp[:]) == 0 {
			runtime.Gosched() // the device pipeline is another goroutine
		}
		if comp[0].Status != rnic.StatusOK {
			return fmt.Errorf("rnic write: %v", comp[0].Status)
		}
		return nil
	})
	return nil
}

// addCoreRungs adds the one-sided read and the inline echo on conn, which
// the prober shares with whatever else uses it.
func (p *prober) addCoreRungs(conn *core.Conn, size int) (*core.Thread, error) {
	th := conn.RegisterThread()
	region, err := conn.AttachMemRegion(64)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, 64)
	p.add(rungReadRTT, func() error { return th.Read(region, 0, dst) })
	payload := make([]byte, size)
	p.add(rungEchoInline, func() error { return echoOnce(th, rpcEchoInline, payload) })
	return th, nil
}

func echoOnce(th *core.Thread, rpcID uint32, payload []byte) error {
	resp, err := th.Call(rpcID, payload)
	if err != nil {
		return err
	}
	defer resp.Release()
	if resp.Status != core.StatusOK || !bytes.Equal(resp.Data, payload) {
		return fmt.Errorf("echo %#x: status %d, %d bytes", rpcID, resp.Status, len(resp.Data))
	}
	return nil
}

// newCoreProber is the ladder of the echo and one-sided workloads: it
// registers one more thread on the workload's own connection, so its
// rungs queue behind the same TCQs as the load.
func newCoreProber(nw *core.Network, conn *core.Conn, clockNS float64, size int) (*prober, error) {
	p := &prober{clockNS: clockNS}
	if err := p.addLocalRungs(size); err != nil {
		return nil, err
	}
	if err := p.addRnicRung(nw.Fabric()); err != nil {
		p.close()
		return nil, err
	}
	if _, err := p.addCoreRungs(conn, size); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// newKVProber is the ladder of the KV workloads. It takes the last
// caller's place, keeps writing that caller's first key, and reaches the
// key's owner twice: over a connection of its own for the core and
// direct rungs (the router's connections are private to it), and through
// the caller's RouterThread for the router rungs.
func newKVProber(nw *core.Network, client *core.Node, m *cluster.ShardMap, c *kvCaller, clockNS float64) (*prober, error) {
	const size = 64
	p := &prober{clockNS: clockNS}
	if err := p.addLocalRungs(size); err != nil {
		return nil, err
	}
	if err := p.addRnicRung(nw.Fabric()); err != nil {
		p.close()
		return nil, err
	}
	k := c.id * keysPerCaller
	key := c.st.keys[k]
	conn, err := client.Connect(m.OwnerOfKey(key))
	if err != nil {
		p.close()
		return nil, err
	}
	th, err := p.addCoreRungs(conn, size)
	if err != nil {
		p.close()
		return nil, err
	}
	payload := make([]byte, size)
	p.add(rungEchoWorker, func() error { return echoOnce(th, rpcEchoWorker, payload) })

	const budget = 250 * time.Millisecond // the router's own default
	direct := func(req []byte) error {
		resp, err := th.CallWithDeadline(cluster.RPCKV, req, budget)
		if err != nil {
			return err
		}
		defer resp.Release()
		if resp.Status != core.StatusOK {
			return fmt.Errorf("direct kv: status %d", resp.Status)
		}
		return nil
	}
	p.add(rungDirectGet, func() error { return direct(cluster.EncodeKVReq(cluster.OpGet, key, 0)) })
	p.add(rungDirectPut, func() error {
		c.next[0]++
		if err := direct(cluster.EncodeKVReq(cluster.OpPut, key, c.next[0])); err != nil {
			return err
		}
		c.st.acked[k].Store(c.next[0])
		return nil
	})
	p.add(rungRouterGet, func() error { return c.get(k) })
	p.add(rungRouterPut, func() error { return c.put(k) })
	return p, nil
}
