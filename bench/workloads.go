package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"flock/internal/cluster"
	"flock/internal/core"
	"flock/internal/fabric"
)

// workloadImpl is how a workload is built. splitClasses says whether its
// ops fall into a write class and a read class (put_* and get_* then
// differ from lat_*) or are all of one kind.
type workloadImpl struct {
	setup        func(seed uint64, problems *problemLog) (*rig, error)
	splitClasses bool
}

// loadThreads is C: the load goroutines of the echo and one-sided
// workloads. They are runnable the whole time, so more of them than CPUs
// would measure the Go scheduler.
func loadThreads() int { return min(runtime.NumCPU(), 4) }

var workloads = map[string]workloadImpl{
	"echo_unloaded":  {setup: echoSetup(echoParams{threads: 1, window: 1, size: 64})},
	"echo_contended": {setup: echoSetup(echoParams{threads: loadThreads(), window: 8, size: 64, qps: 1})},
	"echo_large":     {setup: echoSetup(echoParams{threads: loadThreads(), window: 2, size: 4096})},
	"onesided_mix":   {setup: oneSidedSetup, splitClasses: true},
	"kv_r0":          {setup: kvSetup(0), splitClasses: true},
	"kv_r2":          {setup: kvSetup(2), splitClasses: true},
}

// nodeOptions is what every node of the benchmark starts from: the
// library's defaults but for the stall guard. The guard breaks a QP whose
// combining leader has waited 20 ms for credits or ring space; on a
// shared two-vCPU host the hypervisor takes a CPU away for that long now
// and then, and each time a handful of in-flight ops fail with
// ErrQPBroken (seen on echo_large, whose 4 KiB messages keep leaders
// waiting for ring space, in 3 of 44 runs). The fabric here injects no
// faults, so a stall is never a dead QP: one second tells the two apart.
func nodeOptions() core.Options {
	return core.Options{StallTimeout: time.Second}
}

// RPC IDs the benchmark registers on the nodes it builds: an echo that
// runs inline on the dispatcher and, on nodes with a worker pool, one
// that goes through it.
const (
	rpcEchoInline = 0xB1
	rpcEchoWorker = 0xB2
)

func echoHandler(req []byte) []byte { return req }

func echoStatusHandler(req []byte) ([]byte, uint32) { return req, core.StatusOK }

// ---- echo workloads ----

type echoParams struct {
	threads, window, size int
	qps                   int // QPsPerConn; 0 keeps the default
}

func echoSetup(p echoParams) func(uint64, *problemLog) (*rig, error) {
	return func(seed uint64, problems *problemLog) (*rig, error) {
		nw := core.NewNetwork(fabric.Config{})
		opts := nodeOptions() // Workers 0: handlers run inline
		opts.QPsPerConn = p.qps
		server, err := nw.NewNode(0, opts, 0)
		if err != nil {
			return nil, err
		}
		server.RegisterHandler(rpcEchoInline, echoHandler)
		if err := server.Serve(); err != nil {
			return nil, err
		}
		client, err := nw.NewNode(1, opts, 0)
		if err != nil {
			return nil, err
		}
		conn, err := client.Connect(0)
		if err != nil {
			return nil, err
		}
		r := &rig{nw: nw, client: client, finish: func(*problemLog) {}, close: nw.Close}
		for i := 0; i < p.threads; i++ {
			c := &echoCaller{th: conn.RegisterThread(), id: i, size: p.size, problems: problems}
			c.slots = make([]echoSlot, p.window)
			for s := range c.slots {
				c.slots[s].payload = make([]byte, p.size)
				fillPattern(c.slots[s].payload, seed, i)
			}
			r.callers = append(r.callers, c)
		}
		r.newProber = func(clockNS float64) (*prober, error) {
			return newCoreProber(nw, conn, clockNS, p.size)
		}
		return r, nil
	}
}

// echoSlot is one position of a caller's CallAsync window.
type echoSlot struct {
	payload []byte
	pend    *core.Pending
	start   time.Time
}

// echoCaller keeps `window` echoes in flight on one thread. Each step
// waits for the oldest, checks the reply, and reuses its slot.
type echoCaller struct {
	th       *core.Thread
	id       int
	size     int
	slots    []echoSlot
	next     int
	seq      uint64
	problems *problemLog
}

func (c *echoCaller) step(rec *winRec) {
	s := &c.slots[c.next]
	c.next = (c.next + 1) % len(c.slots)
	if s.pend != nil {
		c.complete(s, rec)
	}
	c.seq++
	binary.LittleEndian.PutUint64(s.payload, c.seq)
	s.start = time.Now()
	p, err := c.th.CallAsync(rpcEchoInline, s.payload, core.CallOptions{})
	if err != nil {
		rec.fail()
		c.problems.opError(err)
		return
	}
	s.pend = p
}

func (c *echoCaller) complete(s *echoSlot, rec *winRec) {
	resp, err := s.pend.Wait()
	d := time.Since(s.start)
	s.pend = nil
	switch {
	case err != nil:
		rec.fail()
		c.problems.opError(err)
	case resp.Status != core.StatusOK:
		rec.fail()
		c.problems.opError(fmt.Errorf("echo status %d", resp.Status))
	case !bytes.Equal(resp.Data, s.payload):
		rec.fail()
		c.problems.addf("echo thread %d: reply to seq %d differs from the request", c.id, binary.LittleEndian.Uint64(s.payload))
	default:
		rec.ok(classAll, d, 2*c.size)
	}
	resp.Release()
}

func (c *echoCaller) drain(rec *winRec) {
	for range c.slots {
		s := &c.slots[c.next]
		c.next = (c.next + 1) % len(c.slots)
		if s.pend != nil {
			c.complete(s, rec)
		}
	}
}

// ---- one-sided workload ----

// Region layout: word 0 is the shared FetchAdd counter; caller i owns the
// slot at (i+1)*oneSidedSlot.
const oneSidedSlot = 64

func oneSidedSetup(seed uint64, problems *problemLog) (*rig, error) {
	nw := core.NewNetwork(fabric.Config{})
	server, err := nw.NewNode(0, nodeOptions(), 0)
	if err != nil {
		return nil, err
	}
	server.RegisterHandler(rpcEchoInline, echoHandler) // for the ladder only
	if err := server.Serve(); err != nil {
		return nil, err
	}
	client, err := nw.NewNode(1, nodeOptions(), 0)
	if err != nil {
		return nil, err
	}
	conn, err := client.Connect(0)
	if err != nil {
		return nil, err
	}
	// One caller: with two, the workload flips between a 5 us and a 7 us
	// mode several times a second and no statistic of a 15 s run is
	// steady. What it is here to show (the memory-op path without any
	// server CPU) needs no second thread.
	const threads = 1
	region, err := conn.AttachMemRegion((threads + 1) * oneSidedSlot)
	if err != nil {
		return nil, err
	}
	adds := &addLedger{}
	r := &rig{nw: nw, client: client, close: nw.Close}
	for i := 0; i < threads; i++ {
		c := &oneSidedCaller{
			th: conn.RegisterThread(), id: i, region: region, off: (i + 1) * oneSidedSlot,
			gen: newOpGen(seed, i, mixOneSided), adds: adds, problems: problems,
			buf: make([]byte, oneSidedSlot), dst: make([]byte, oneSidedSlot),
		}
		fillPattern(c.buf, seed, i)
		// Preload: the slot holds the caller's pattern before the first Read.
		if err := c.th.Write(region, c.off, c.buf); err != nil {
			return nil, err
		}
		r.callers = append(r.callers, c)
	}
	checker := conn.RegisterThread()
	r.finish = func(p *problemLog) {
		// The counter must equal the adds that succeeded; an add that
		// returned an error may or may not have been applied.
		got, err := checker.FetchAdd(region, 0, 0)
		ok, unknown := adds.ok.Load(), adds.unknown.Load()
		if err != nil {
			p.addf("final FetchAdd read: %v", err)
		} else if got < ok || got > ok+unknown {
			p.addf("FetchAdd word is %d after %d successful adds (%d of unknown fate)", got, ok, unknown)
		}
	}
	r.newProber = func(clockNS float64) (*prober, error) {
		return newCoreProber(nw, conn, clockNS, oneSidedSlot)
	}
	return r, nil
}

// addLedger counts FetchAdds across callers for the final-word check.
type addLedger struct {
	ok, unknown atomic.Uint64
}

// oneSidedCaller issues synchronous memory ops against its own slot and
// the shared counter.
type oneSidedCaller struct {
	th       *core.Thread
	id       int
	region   *core.RemoteRegion
	off      int
	gen      *opGen
	adds     *addLedger
	buf, dst []byte
	version  uint64 // first 8 bytes of the last Write issued
	unsure   bool   // the last Write failed, so the slot's content is unknown
	lastAdd  uint64 // previous value returned by this caller's last FetchAdd
	added    bool
	problems *problemLog
}

func (c *oneSidedCaller) step(rec *winRec) {
	switch c.gen.next().kind {
	case opWrite:
		c.version++
		binary.LittleEndian.PutUint64(c.buf, c.version)
		t0 := time.Now()
		err := c.th.Write(c.region, c.off, c.buf)
		d := time.Since(t0)
		// A failed Write may or may not have landed: Reads are not
		// checked again until a Write succeeds.
		c.unsure = err != nil
		if err != nil {
			rec.fail()
			c.problems.opError(err)
			return
		}
		rec.ok(classPut, d, oneSidedSlot)
	case opRead:
		t0 := time.Now()
		err := c.th.Read(c.region, c.off, c.dst)
		d := time.Since(t0)
		switch {
		case err != nil:
			rec.fail()
			c.problems.opError(err)
		case !c.unsure && !bytes.Equal(c.dst, c.buf):
			rec.fail()
			c.problems.addf("one-sided thread %d: Read returned version %d, last Write was %d",
				c.id, binary.LittleEndian.Uint64(c.dst), c.version)
		default:
			rec.ok(classGet, d, oneSidedSlot)
		}
	case opFetchAdd:
		t0 := time.Now()
		prev, err := c.th.FetchAdd(c.region, 0, 1)
		d := time.Since(t0)
		switch {
		case err != nil:
			c.adds.unknown.Add(1)
			rec.fail()
			c.problems.opError(err)
		case c.added && prev <= c.lastAdd:
			c.adds.ok.Add(1)
			rec.fail()
			c.problems.addf("one-sided thread %d: FetchAdd returned %d after %d", c.id, prev, c.lastAdd)
		default:
			c.adds.ok.Add(1)
			c.lastAdd, c.added = prev, true
			rec.ok(classPut, d, 8)
		}
	}
}

func (c *oneSidedCaller) drain(*winRec) {} // synchronous: nothing in flight

// ---- KV workloads ----

const (
	kvMembers  = 4
	kvShards   = 4
	kvWorkers  = 40
	kvClientID = 100
)

// kvState is what the KV callers share: the key table and, per key, the
// newest value its owner has seen acknowledged.
type kvState struct {
	keys  []uint64
	acked [kvKeys]atomic.Uint64
}

func kvSetup(replicas int) func(uint64, *problemLog) (*rig, error) {
	return func(seed uint64, problems *problemLog) (*rig, error) {
		nw := core.NewNetwork(fabric.Config{})
		members := make([]fabric.NodeID, kvMembers)
		for i := range members {
			members[i] = fabric.NodeID(i)
		}
		m, err := cluster.NewReplicated(members, kvShards, 0, replicas)
		if err != nil {
			return nil, err
		}
		services := make(map[fabric.NodeID]*cluster.Service, kvMembers)
		for _, id := range members {
			opts := nodeOptions()
			opts.Workers = kvWorkers
			node, err := nw.NewNode(id, opts, 0)
			if err != nil {
				return nil, err
			}
			// Ladder rungs: the same echo on the dispatcher and behind the
			// worker pool, next to the service's own handlers.
			node.RegisterInlineStatusHandler(rpcEchoInline, echoStatusHandler)
			node.RegisterHandler(rpcEchoWorker, echoHandler)
			svc, err := cluster.NewService(node, m, 0)
			if err != nil {
				return nil, err
			}
			services[id] = svc
			if err := node.Serve(); err != nil {
				return nil, err
			}
		}
		client, err := nw.NewNode(kvClientID, nodeOptions(), 0)
		if err != nil {
			return nil, err
		}
		router := cluster.NewRouter(client, m)
		st := &kvState{keys: kvKeyTable(seed, kvShards, m.ShardOf)}

		r := &rig{nw: nw, client: client}
		r.replLogPending = func() (n int64) {
			for _, svc := range services {
				n += svc.Node().Telemetry().Gauge("cluster.repl_log_pending").Load()
			}
			return n
		}
		for i := 0; i < kvCallers; i++ {
			c := &kvCaller{rt: router.Thread(), id: i, st: st, gen: newOpGen(seed, i, mixKV), problems: problems}
			// Preload: every key exists before the first get, and every
			// member connection is dialled before the first window.
			for j := 0; j < keysPerCaller; j++ {
				k := i*keysPerCaller + j
				if err := c.rt.Put(st.keys[k], 1); err != nil {
					return nil, fmt.Errorf("preload key %d: %w", k, err)
				}
				c.next[j] = 1
				st.acked[k].Store(1)
			}
			r.callers = append(r.callers, c)
		}
		last := r.callers[kvCallers-1].(*kvCaller)
		r.newProber = func(clockNS float64) (*prober, error) {
			return newKVProber(nw, client, m, last, clockNS)
		}
		r.finish = func(p *problemLog) {
			kvFinish(p, nw, m, services, router, st, replicas)
		}
		r.close = func() {
			router.Close()
			for _, svc := range services {
				svc.Close()
			}
			nw.Close()
		}
		return r, nil
	}
}

// kvCaller is one synchronous router caller. It parks in Pending.Wait for
// the length of every op, so sixteen of them are not sixteen runnable
// goroutines.
type kvCaller struct {
	rt       *cluster.RouterThread
	id       int
	st       *kvState
	gen      *opGen
	next     [keysPerCaller]uint64 // last value written to each own key
	seen     [kvKeys]uint64        // newest value this caller has read, per key
	problems *problemLog
}

func (c *kvCaller) step(rec *winRec) {
	o := c.gen.next()
	if o.kind == opPut {
		t0 := time.Now()
		err := c.put(o.key)
		d := time.Since(t0)
		if err != nil {
			rec.fail()
			c.problems.opError(err)
			return
		}
		rec.ok(classPut, d, 17)
		return
	}
	t0 := time.Now()
	err := c.get(o.key)
	d := time.Since(t0)
	if err != nil {
		rec.fail()
		c.problems.opError(err)
		return
	}
	rec.ok(classGet, d, 17+9)
}

// put writes the next value of one of the caller's own keys. Values per
// key only grow, acknowledged or not, as the service's guarded apply
// requires.
func (c *kvCaller) put(k int) error {
	j := k - c.id*keysPerCaller
	c.next[j]++
	if err := c.rt.Put(c.st.keys[k], c.next[j]); err != nil {
		return err
	}
	c.st.acked[k].Store(c.next[j])
	return nil
}

// get reads any key and checks the two properties a caller can see: the
// value is at least what the key's owner had acknowledged when the get
// was issued, and this caller's reads of the key never go backwards.
func (c *kvCaller) get(k int) error {
	floor := max(c.st.acked[k].Load(), c.seen[k])
	v, found, err := c.rt.Get(c.st.keys[k])
	if err != nil {
		return err
	}
	if !found || v < floor {
		c.problems.addf("kv caller %d: get of key %d returned (%d, found=%v), expected at least %d", c.id, k, v, found, floor)
		return fmt.Errorf("stale read")
	}
	c.seen[k] = v
	return nil
}

func (c *kvCaller) drain(*winRec) {} // synchronous: nothing in flight

// kvFinish checks the quiesced cluster: every key reads back the last
// acknowledged value, replicas of a shard are byte-equal, and with R=0
// the replication machinery never ran.
func kvFinish(p *problemLog, nw *core.Network, m *cluster.ShardMap, services map[fabric.NodeID]*cluster.Service,
	router *cluster.Router, st *kvState, replicas int) {
	rt := router.Thread()
	for k, key := range st.keys {
		v, found, err := rt.Get(key)
		if want := st.acked[k].Load(); err != nil || !found || v < want {
			p.addf("final get of key %d: (%d, found=%v, err=%v), last acknowledged value %d", k, v, found, err, want)
		}
	}
	for s := 0; s < m.Shards; s++ {
		want := services[m.Owner(s)].ShardFingerprint(s)
		for _, b := range m.BackupsOf(s) {
			if got := services[b].ShardFingerprint(s); got != want {
				p.addf("shard %d: backup %d fingerprint %#x, primary %#x", s, b, got, want)
			}
		}
	}
	if replicas == 0 {
		d := newRegView(nw.TelemetrySnapshot())
		if n := d.counter("cluster.replica_forwards") + d.counter("cluster.repl_batches"); n != 0 {
			p.addf("R=0 run forwarded %v replication frames", n)
		}
	}
}
