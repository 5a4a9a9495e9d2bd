package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/fabric"
	"flock/internal/mem"
	"flock/internal/rnic"
	"flock/internal/telemetry"
)

// Errors surfaced by the public API.
var (
	ErrClosed          = errors.New("flock: node closed")
	ErrPayloadTooLarge = errors.New("flock: payload exceeds the maximum payload size")
	ErrNotServing      = errors.New("flock: remote node is not serving")
	ErrNoSuchNode      = errors.New("flock: no such node")
	ErrReadTooLarge    = errors.New("flock: read larger than thread scratch region")

	// ErrTimeout reports that an RPC's deadline expired before a response
	// arrived (CallWithDeadline / Options.RPCTimeout). The request may
	// still execute on the server: deadline recovery is at-least-once.
	ErrTimeout = errors.New("flock: RPC deadline exceeded")
	// ErrQPBroken reports that the QP carrying an in-flight operation
	// entered the error state (retry exhaustion, flush, stall). The
	// operation's fate is unknown; the connection recycles the QP in the
	// background and the caller may retry on it or another QP.
	ErrQPBroken = errors.New("flock: queue pair broken; in-flight operation failed")
	// ErrConnClosed reports that the connection handle was closed or
	// failed fatally. It wraps ErrClosed so errors.Is(err, ErrClosed)
	// keeps matching for callers that don't care which.
	ErrConnClosed = fmt.Errorf("flock: connection closed: %w", ErrClosed)

	// ErrOverloaded reports server-side admission pushback: the request
	// was rejected before any handler work (queue depth past
	// AdmissionLimit, or a duplicate raced its still-executing original).
	// Retryable after backoff.
	ErrOverloaded = errors.New("flock: server overloaded; request rejected")
	// ErrDraining reports that the node is draining: it finishes in-flight
	// work but admits nothing new. Deliberately does NOT wrap ErrClosed —
	// the node is healthy, so callers should retry elsewhere rather than
	// give up.
	ErrDraining = errors.New("flock: node draining; request rejected")
	// ErrCanceled reports that a Pending was canceled by its owner before
	// completing. The request may still execute on the server; its
	// response is dropped as stale.
	ErrCanceled = errors.New("flock: call canceled")
)

// Response status codes carried in response item metadata.
const (
	// StatusOK means the handler ran and produced the attached payload.
	StatusOK uint32 = iota
	// StatusNoHandler means no handler was registered for the RPC ID.
	StatusNoHandler
	// StatusHandlerPanic means the handler panicked; the payload is empty.
	StatusHandlerPanic
	// StatusConnClosed is delivered to blocked receivers when their
	// connection handle is closed locally.
	StatusConnClosed
	// StatusOverloaded is the admission-control NACK: rejected before
	// execution, safe (and expected) to retry after backoff.
	StatusOverloaded
	// StatusDraining is the graceful-drain NACK: the node stopped
	// admitting new work; retry on another node.
	StatusDraining
	// StatusWrongShard is the placement NACK: the request's key shard is
	// not owned by this node under its current shard map. The response
	// payload carries the server's (newer) encoded map so the client can
	// self-correct and re-route; it is not an error at the transport
	// layer — it surfaces as Response.Status, and routing layers handle
	// the redirect.
	StatusWrongShard
)

// Handler processes one RPC request and returns the response payload. It
// must not retain req past the call. Returning nil sends an empty
// response.
type Handler func(req []byte) []byte

// ReplyHandler is the form every handler is registered in: it receives the
// request and the handle to answer it through (see Reply), and may answer
// before it returns — which is all Handler and StatusHandler ever do — or
// keep the handle and answer later from any goroutine, so that a request
// waiting on something else (a replication ack, a lock) occupies no worker
// while it waits. It must not retain req past its return, whenever it
// replies: req views the request ring itself, whose space goes back to the
// client — zeroed, then rewritten — the moment the handlers of the message it
// arrived in have returned and their replies are flushed. Likewise r is
// recycled once a Send made after the handler returned has returned.
type ReplyHandler func(req []byte, r *Reply)

// StatusHandler is a Handler that also chooses the response status word —
// the hook services built above core (shard routers, placement layers) use
// to NACK requests with application statuses such as StatusWrongShard
// while still attaching a payload. Returning StatusOK is equivalent to a
// plain Handler.
type StatusHandler func(req []byte) ([]byte, uint32)

// Network owns a fabric and the FLock nodes on it. It stands in for the
// out-of-band connection setup (e.g. TCP exchange of QP numbers and rkeys)
// that real RDMA deployments perform.
type Network struct {
	fab *fabric.Fabric
	tel *telemetry.Registry // network-scoped metrics: fabric wire/fault
	// counters and the shared buffer pool

	mu    sync.RWMutex
	nodes map[fabric.NodeID]*Node
}

// NewNetwork creates an empty network over a fresh fabric.
func NewNetwork(fcfg fabric.Config) *Network {
	nw := &Network{
		fab:   fabric.New(fcfg),
		tel:   telemetry.New(),
		nodes: make(map[fabric.NodeID]*Node),
	}
	nw.fab.PublishTelemetry(nw.tel, "fabric.")
	mem.Default.PublishTelemetry(nw.tel, "mem.")
	return nw
}

// Fabric exposes the underlying fabric (for traffic statistics).
func (nw *Network) Fabric() *fabric.Fabric { return nw.fab }

// Telemetry returns the network-scoped registry (fabric and buffer-pool
// views). Per-node metrics live on each Node's registry; use
// TelemetrySnapshot for the combined view.
func (nw *Network) Telemetry() *telemetry.Registry { return nw.tel }

// TelemetrySnapshot captures the whole deployment: the network registry
// plus every node's registry merged under a "node<id>." prefix.
func (nw *Network) TelemetrySnapshot() telemetry.Snapshot {
	s := nw.tel.Snapshot()
	nw.mu.RLock()
	nodes := make([]*Node, 0, len(nw.nodes))
	for _, n := range nw.nodes {
		nodes = append(nodes, n)
	}
	nw.mu.RUnlock()
	for _, n := range nodes {
		s.Merge(fmt.Sprintf("node%d.", n.id), n.tel.Snapshot())
	}
	return s
}

// NewNode creates a FLock node with its own RNIC. nicCacheSize bounds the
// device's connection-context cache: pass 0 for an unconstrained
// functional run and a positive size to model the Figure 2 thrashing
// regime.
func (nw *Network) NewNode(id fabric.NodeID, opts Options, nicCacheSize int) (*Node, error) {
	if err := opts.withDefaults().validate(); err != nil {
		return nil, err
	}
	dev, err := rnic.NewDevice(nw.fab, rnic.Config{
		Node: id, CacheSize: nicCacheSize, RCRetries: opts.test.rcRetries,
	})
	if err != nil {
		return nil, err
	}
	n := newNode(nw, id, dev, opts)
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, dup := nw.nodes[id]; dup {
		dev.Close()
		return nil, fmt.Errorf("flock: node %d already exists", id)
	}
	nw.nodes[id] = n
	return n, nil
}

// node returns the registered node, or nil.
func (nw *Network) node(id fabric.NodeID) *Node {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.nodes[id]
}

// Close shuts down every node and device.
func (nw *Network) Close() {
	nw.mu.Lock()
	nodes := make([]*Node, 0, len(nw.nodes))
	for _, n := range nw.nodes {
		nodes = append(nodes, n)
	}
	nw.nodes = make(map[fabric.NodeID]*Node)
	nw.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
}

// NodeMetrics aggregates activity counters useful to benchmarks; see the
// coalescing analysis around Figure 10 of the paper.
type NodeMetrics struct {
	// MsgsIn / ItemsIn count inbound coalesced messages and the requests
	// within them (server role). ItemsIn/MsgsIn is the served coalescing
	// degree.
	MsgsIn  uint64
	ItemsIn uint64
	// MsgsOut / ItemsOut count outbound coalesced request messages and
	// items (client role).
	MsgsOut  uint64
	ItemsOut uint64
	// CreditRenewals counts credit-renewal requests granted (server role).
	CreditRenewals uint64
	// QPActivations / QPDeactivations count receiver-side scheduling
	// actions (server role).
	QPActivations   uint64
	QPDeactivations uint64
	// ThreadMigrations counts sender-side thread reassignments applied.
	ThreadMigrations uint64
	// QPRecycles counts broken QPs torn down and re-established (client
	// and server role combined).
	QPRecycles uint64
	// QPQuarantines counts QPs permanently retired for breaking more than
	// DefaultFlapThreshold times in a row while a sibling QP kept working.
	QPQuarantines uint64
	// RPCTimeouts counts per-attempt RPC deadline expiries observed by
	// CallWithDeadline / Call-with-RPCTimeout.
	RPCTimeouts uint64
	// LeaderStalls counts combining-leader credit/space waits that hit
	// StallTimeout and broke their QP.
	LeaderStalls uint64
	// QPRedistributions counts receiver-side scheduler rounds that changed
	// the active-QP set (server role).
	QPRedistributions uint64
	// RPCRejected counts requests shed by admission control before
	// execution (server role); RPCRejectedDraining counts drain NACKs.
	RPCRejected         uint64
	RPCRejectedDraining uint64
	// Retries counts client-side retry attempts sent; RetryBudgetExhausted
	// counts retries the token-bucket budget refused.
	Retries              uint64
	RetryBudgetExhausted uint64
	// DedupHits counts retried requests answered from the idempotent
	// response cache instead of re-executing (server role).
	DedupHits uint64
	// CreditWithheld counts credits the watermark policy declined to grant
	// while the server ran near its admission limit.
	CreditWithheld uint64
	// StaleDrops counts responses that arrived after their attempt was
	// abandoned (deadline expiry, cancel) and were dropped where they were
	// drained, with their pooled lease recycled.
	StaleDrops uint64
}

// Node is one FLock endpoint. A node can serve inbound connections
// (RegisterHandler + Serve) and open outbound connections (Connect),
// including both at once — FLockTX servers do exactly that.
type Node struct {
	net  *Network
	id   fabric.NodeID
	opts Options
	dev  *rnic.Device

	handlers atomic.Pointer[handlerTable] // immutable snapshot
	handMu   sync.Mutex

	serving atomic.Bool

	// Overload control (server role): inflight counts admitted-but-not-yet
	// -responded requests against Options.AdmissionLimit; draining flips
	// the node into graceful-drain mode (admit nothing, finish everything).
	inflight atomic.Int64
	draining atomic.Bool

	// Server role.
	sconnMu sync.Mutex
	sconns  []*serverConn // one per inbound connection handle; a client
	// node may hold several (the paper's multi-process clients, §8.4)
	sconnsSnap atomic.Value // []*serverConn snapshot for the pumps
	byQPN      atomic.Value // map[int]*serverQP snapshot

	// Worker pool (Options.Workers > 0; pool.go). workCh carries the
	// worker-lane messages relief pumped to parked pool goroutines; pumpers
	// counts the pool goroutines in a polling stint, and relief leaves the
	// rings to them while there is one. replyFree, with or without a pool,
	// recycles the reply-handle blocks nobody holds any more (server.go's
	// replyBlock). newNode makes both channels, so nothing the node's loop
	// reads is written later.
	workCh    chan workUnit
	replyFree chan *replyBlock
	pumpers   atomic.Int32

	// Client role.
	connMu    sync.Mutex
	conns     []*Conn
	connsSnap atomic.Value // []*Conn snapshot for the dispatch loop
	allConns  []*Conn      // every conn ever opened, kept for the
	// Close-time lease drain (Conn.Close prunes conns but completed,
	// unclaimed records may still sit in closed handles' tables)
	started bool // run is running, started by the first of Serve and
	// Connect; guarded by connMu

	// Named regions exported for remote one-sided access.
	exportMu sync.Mutex
	exports  map[string]*rnic.MemRegion

	// metrics are sharded telemetry counters (zero value ready): msgsOut/
	// itemsOut take hits from every combining leader, and striping keeps
	// that off a single contended cache line. All of them are published on
	// the node registry as snapshot views in newNode — never lazily.
	metrics struct {
		msgsIn, itemsIn, msgsOut, itemsOut          telemetry.Counter
		renewals, activations, deactivations, migrs telemetry.Counter
		recycles, quarantines, timeouts, stalls     telemetry.Counter
		redistributions                             telemetry.Counter
		rejected, drainRejected                     telemetry.Counter
		retries, budgetExhausted                    telemetry.Counter
		dedupHits, creditWithheld                   telemetry.Counter
		staleDrops                                  telemetry.Counter
		// Completions drained by a waiter or a starved leader polling its
		// own QP, and by the node's loop.
		waiterCompletions, reliefCompletions telemetry.Counter
		// Worker-lane requests pumped by the pool goroutine that then
		// executes them, and by relief, which hands them off.
		workerPumped, reliefPumped telemetry.Counter
		// Parks of the node's loop that ended: a landing on what it or a
		// parked poller armed, its next due work, or close.
		loopWakes telemetry.Counter
	}

	// tel is the node's telemetry registry; the histograms and the trace
	// ring hang off it. All handles are resolved at construction so the
	// hot path never touches the registry map.
	tel          *telemetry.Registry
	degOut       *telemetry.Hist // coalescing degree of outbound messages
	degIn        *telemetry.Hist // coalescing degree of inbound messages
	tenure       *telemetry.Hist // leader tenure, nanoseconds
	pipeDepth    *telemetry.Hist // pending-table depth at submission
	completionNS *telemetry.Hist // call completion latency, nanoseconds
	trace        *telemetry.TraceRing

	// closed is set as done is closed, for the checks that only ask: a load,
	// where a select on done takes the channel's lock.
	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup

	// clock is every clock read the node makes; time.Now, and a test's
	// counting stand-in. start is its reading when the node was made, the
	// origin of the pending tables' deadlines (see sinceStart).
	clock func() time.Time
	start time.Time
}

func newNode(nw *Network, id fabric.NodeID, dev *rnic.Device, opts Options) *Node {
	n := &Node{
		net:   nw,
		id:    id,
		opts:  opts.withDefaults(),
		dev:   dev,
		tel:   telemetry.New(),
		done:  make(chan struct{}),
		clock: time.Now,
	}
	n.start = n.clock()
	n.handlers.Store(&handlerTable{})
	n.byQPN.Store(map[int]*serverQP{})
	n.connsSnap.Store([]*Conn{})
	n.sconnsSnap.Store([]*serverConn{})
	// As many spare reply blocks as workCh holds units (4 × Workers, and 4
	// without a pool): relief takes one per hand-off, and a block returned
	// beyond that is the GC's.
	n.replyFree = make(chan *replyBlock, 4*max(n.opts.Workers, 1))
	if n.opts.Workers > 0 {
		n.workCh = make(chan workUnit, 4*n.opts.Workers)
	}
	n.publishTelemetry()
	return n
}

// publishTelemetry registers every node-level metric on the node registry.
// It runs once at construction — the alloc gate depends on nothing being
// created lazily on the first RPC.
func (n *Node) publishTelemetry() {
	cf := func(name string, c *telemetry.Counter) {
		n.tel.CounterFunc("core."+name, c.Load)
	}
	cf("msgs_in", &n.metrics.msgsIn)
	cf("items_in", &n.metrics.itemsIn)
	cf("msgs_out", &n.metrics.msgsOut)
	cf("items_out", &n.metrics.itemsOut)
	cf("credit_renewals", &n.metrics.renewals)
	cf("qp_activations", &n.metrics.activations)
	cf("qp_deactivations", &n.metrics.deactivations)
	cf("thread_migrations", &n.metrics.migrs)
	cf("qp_recycles", &n.metrics.recycles)
	cf("qp_quarantines", &n.metrics.quarantines)
	cf("rpc_timeouts", &n.metrics.timeouts)
	cf("leader_stalls", &n.metrics.stalls)
	cf("qp_redistributions", &n.metrics.redistributions)
	cf("rpc_rejected", &n.metrics.rejected)
	cf("rpc_rejected_draining", &n.metrics.drainRejected)
	cf("retries", &n.metrics.retries)
	cf("retry_budget_exhausted", &n.metrics.budgetExhausted)
	cf("dedup_hits", &n.metrics.dedupHits)
	cf("credit_withheld", &n.metrics.creditWithheld)
	cf("stale_drops", &n.metrics.staleDrops)
	cf("completions_waiter", &n.metrics.waiterCompletions)
	cf("completions_relief", &n.metrics.reliefCompletions)
	cf("requests_pumped_worker", &n.metrics.workerPumped)
	cf("requests_pumped_relief", &n.metrics.reliefPumped)
	cf("loop_wakes", &n.metrics.loopWakes)

	n.degOut = n.tel.Hist("core.coalesce_degree_out")
	n.degIn = n.tel.Hist("core.coalesce_degree_in")
	n.tenure = n.tel.Hist("core.leader_tenure_ns")
	n.pipeDepth = n.tel.Hist("core.pipeline_depth")
	n.completionNS = n.tel.Hist("core.completion_latency_ns")
	n.trace = n.tel.Trace()

	n.tel.GaugeFunc("core.pending_calls", func() int64 {
		var pending int64
		for _, c := range n.snapshotConns() {
			for _, t := range c.snapshotThreads() {
				pending += int64(t.pend.depth())
			}
		}
		return pending
	})

	n.tel.GaugeFunc("core.active_qps", func() int64 {
		var active int64
		for _, sqp := range n.byQPN.Load().(map[int]*serverQP) {
			if sqp.active.Load() {
				active++
			}
		}
		return active
	})
	n.tel.GaugeFunc("core.max_active_qps", func() int64 {
		return int64(n.opts.MaxActiveQPs)
	})

	n.dev.PublishTelemetry(n.tel, "rnic.")
}

// Telemetry returns the node's metric registry.
func (n *Node) Telemetry() *telemetry.Registry { return n.tel }

// Trace returns the node's RPC-lifecycle trace ring, off until Enable
// switches it on.
func (n *Node) Trace() *telemetry.TraceRing { return n.trace }

// ID returns the node's fabric address.
func (n *Node) ID() fabric.NodeID { return n.id }

// Device exposes the node's RNIC (for NIC-level statistics).
func (n *Node) Device() *rnic.Device { return n.dev }

// Options returns the node's effective (default-filled) options.
func (n *Node) Options() Options { return n.opts }

// Metrics snapshots the node's activity counters.
func (n *Node) Metrics() NodeMetrics {
	return NodeMetrics{
		MsgsIn:            n.metrics.msgsIn.Load(),
		ItemsIn:           n.metrics.itemsIn.Load(),
		MsgsOut:           n.metrics.msgsOut.Load(),
		ItemsOut:          n.metrics.itemsOut.Load(),
		CreditRenewals:    n.metrics.renewals.Load(),
		QPActivations:     n.metrics.activations.Load(),
		QPDeactivations:   n.metrics.deactivations.Load(),
		ThreadMigrations:  n.metrics.migrs.Load(),
		QPRecycles:        n.metrics.recycles.Load(),
		QPQuarantines:     n.metrics.quarantines.Load(),
		RPCTimeouts:       n.metrics.timeouts.Load(),
		LeaderStalls:      n.metrics.stalls.Load(),
		QPRedistributions: n.metrics.redistributions.Load(),

		RPCRejected:          n.metrics.rejected.Load(),
		RPCRejectedDraining:  n.metrics.drainRejected.Load(),
		Retries:              n.metrics.retries.Load(),
		RetryBudgetExhausted: n.metrics.budgetExhausted.Load(),
		DedupHits:            n.metrics.dedupHits.Load(),
		CreditWithheld:       n.metrics.creditWithheld.Load(),
		StaleDrops:           n.metrics.staleDrops.Load(),
	}
}

// DegreeHistograms snapshots the node's coalescing-degree histograms:
// outbound (client role, per combined message posted) and inbound (server
// role, per coalesced message received).
func (n *Node) DegreeHistograms() (out, in telemetry.HistSnapshot) {
	return n.degOut.Snapshot(), n.degIn.Snapshot()
}

// handlerTable is the node's registered handlers; inline marks the ones
// that run on the goroutine pumping their message even when a worker pool is
// configured.
type handlerTable struct {
	byID      map[uint32]handlerEntry
	anyInline bool
}

type handlerEntry struct {
	fn     ReplyHandler
	inline bool
}

// RegisterHandler binds fn to rpcID (fl_reg_handler in Table 2).
// Registration is allowed at any time but handlers should be in place
// before clients call them.
func (n *Node) RegisterHandler(rpcID uint32, fn Handler) {
	n.RegisterReplyHandler(rpcID, false, func(req []byte, r *Reply) { r.Send(fn(req), StatusOK) })
}

// RegisterInlineStatusHandler binds a status-returning handler to rpcID on
// the inline lane (see RegisterReplyHandler).
func (n *Node) RegisterInlineStatusHandler(rpcID uint32, fn StatusHandler) {
	n.RegisterReplyHandler(rpcID, true, func(req []byte, r *Reply) { r.Send(fn(req)) })
}

// RegisterReplyHandler binds fn to rpcID; every registration form lands
// here, all share one table, and the last registration for an rpcID wins.
//
// inline is an execution-lane promise: the handler runs on the goroutine
// that pulls its message off the request ring — the node's own (run), or a
// pool goroutine while it holds the QP's poll role — even when a worker pool
// is configured, so it can never queue behind workers whose handlers block.
// Only for handlers that are short and never block — replication applies,
// pings, map fetches. A blocking inline handler stalls its QP's receive path
// (the node's whole receive path without a pool); one that must wait replies
// later instead. Without a pool every handler runs on the node's goroutine,
// which also relieves the node's outbound QPs and sweeps their deadlines, so
// none may wait on a call from its own node either.
func (n *Node) RegisterReplyHandler(rpcID uint32, inline bool, fn ReplyHandler) {
	n.handMu.Lock()
	defer n.handMu.Unlock()
	old := n.handlerTable()
	next := &handlerTable{byID: make(map[uint32]handlerEntry, len(old.byID)+1)}
	for k, v := range old.byID {
		next.byID[k] = v
	}
	next.byID[rpcID] = handlerEntry{fn: fn, inline: inline}
	for _, h := range next.byID {
		next.anyInline = next.anyInline || h.inline
	}
	n.handlers.Store(next)
}

// handlerTable returns the current registration snapshot.
func (n *Node) handlerTable() *handlerTable { return n.handlers.Load() }

// Serve starts the server role: the worker pool (if configured) and, unless
// Connect started it, the node's loop (run). It returns immediately; inbound
// connections are accepted while serving, and accept reads nothing Serve
// writes after serving flips.
func (n *Node) Serve() error {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.closing() {
		return ErrClosed
	}
	if n.serving.Swap(true) {
		return nil // already serving
	}
	for i := 0; i < n.opts.Workers; i++ {
		n.wg.Add(1)
		go n.worker(i)
	}
	n.startLocked()
	return nil
}

// Serving reports whether Serve has been called.
func (n *Node) Serving() bool { return n.serving.Load() }

// Close stops all of the node's goroutines and its device. Blocked
// application calls return ErrClosed.
func (n *Node) Close() {
	n.connMu.Lock()
	if n.closing() {
		n.connMu.Unlock()
		return
	}
	n.closed.Store(true)
	close(n.done)
	n.connMu.Unlock()
	n.wg.Wait()
	n.stopPollers()
	n.drainLeases()
	n.dev.Close()
}

// stopPollers takes the poll role of every QP the node ever opened, for
// good: a waiter still inside one is waited out, and none delivers into a
// pending-call table after drainLeases has emptied it. Waiters that come
// later lose the CAS and meet the closed node instead.
func (n *Node) stopPollers() {
	n.connMu.Lock()
	all := n.allConns
	n.connMu.Unlock()
	for _, c := range all {
		for _, q := range c.qps {
			for !q.polling.CompareAndSwap(false, true) {
				runtime.Gosched()
			}
		}
	}
}

// Drain puts the node into graceful-drain mode and waits for quiescence:
// new requests are pushed back with StatusDraining (server role) and new
// sends fail with ErrDraining (client role), while everything already
// in flight — admitted handler work, outstanding responses, in-progress
// combines — runs to completion. It returns nil once the node is
// quiescent: zero admitted server requests and zero outstanding client
// RPCs, so no pooled lease is held on the node's behalf. ctx bounds the
// wait; nil ctx waits indefinitely. Drain does not close anything —
// after it returns, Close is safe and instant, or Resume re-opens the
// node for traffic.
func (n *Node) Drain(ctx context.Context) error {
	n.draining.Store(true)
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for i := 0; ; i++ {
		if n.quiescent() {
			return nil
		}
		if n.closing() {
			return ErrClosed
		}
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		pause(i)
	}
}

// Resume takes the node out of drain mode; it admits traffic again.
func (n *Node) Resume() { n.draining.Store(false) }

// Draining reports whether the node is in drain mode.
func (n *Node) Draining() bool { return n.draining.Load() }

// quiescent reports zero in-flight work on both roles: no admitted
// server-side requests and no outstanding client-side operations on any
// thread.
func (n *Node) quiescent() bool {
	if n.inflight.Load() != 0 {
		return false
	}
	for _, c := range n.snapshotConns() {
		for _, t := range c.snapshotThreads() {
			if t.pend.depth() != 0 {
				return false
			}
		}
	}
	return true
}

// drainLeases recycles pooled buffers still parked in pending-call tables,
// and drops the messages relief handed to the worker pool that no pool
// goroutine took (their ring space and inuse counts). It runs after wg.Wait
// and stopPollers — the node's loop, pool goroutines and polling waiters are
// gone, so nothing refills what it drains (a pool goroutine executes what it
// pulled before it looks at done again, and the loop drops its backlog as it
// leaves, so none exits holding a message). Application threads may still
// race a concurrent wait; a record's token goes to exactly one taker, so no
// lease is released twice.
func (n *Node) drainLeases() {
	n.connMu.Lock()
	all := make([]*Conn, len(n.allConns))
	copy(all, n.allConns)
	n.connMu.Unlock()
	for _, c := range all {
		for _, t := range c.snapshotThreads() {
			// Completed records no waiter claimed still hold their
			// response leases; unwaited Pendings park here.
			t.pend.drain()
		}
	}
	if n.workCh != nil {
		for more := true; more; {
			select {
			case u := <-n.workCh:
				n.dropUnit(u)
			default:
				more = false
			}
		}
	}
}

// closing reports whether Close has begun. A goroutine is added to wg only
// under connMu after this check, so none is added after Close's Wait.
func (n *Node) closing() bool { return n.closed.Load() }

// startLocked starts the node's loop once; caller holds connMu and has
// checked closing.
func (n *Node) startLocked() {
	if !n.started {
		n.started = true
		n.wg.Add(1)
		go n.run()
	}
}

// run is the node's one goroutine (§4.3's dispatcher, §5's schedulers). Each
// pass relieves the outbound QPs a waiter is parked on (relieveConns), then
// the request rings no pool goroutine polls (relieveRings), and every
// DefaultSchedInterval runs schedule. A pass that found work starts the next
// at once. Idle passes are the loop's stint; when it runs out the loop arms
// what it relieves (relieveConns with arm, armRings) and, if that last look
// found nothing, parks on the device's completion channel until a landing
// there, close or its next due work: the schedule or, while messages wait in
// its hand-off backlog, idleNap. Once the node is closing it makes one last
// pass over every outbound QP, drops the messages it could not hand off, and
// leaves.
func (n *Node) run() {
	defer n.wg.Done()
	start := n.clock()
	timer := time.NewTimer(time.Hour) // the park timer: stopped and empty between parks
	timer.Stop()
	var rings ringRelief
	var now, schedAt time.Duration
	s := stint(stintMin)
	idle, unclocked := 0, 0
	for {
		closing := n.closing()
		busy := n.relieveConns(closing, false)
		if closing {
			for _, u := range rings.backlog {
				n.dropUnit(u)
			}
			return
		}
		pumped := n.relieveRings(&rings)
		busy = busy || pumped > 0
		// An idle pass looks at the clock for the schedule, and so does a
		// busy one once 32 passes and messages went by unclocked: a Workers
		// 0 server under continuous load has no idle pass, and its sweep
		// must still run.
		if unclocked += 1 + pumped; !busy || unclocked >= 32 {
			unclocked = 0
			if now = n.clock().Sub(start); now-schedAt >= DefaultSchedInterval {
				schedAt = now
				n.schedule(start.Add(now))
				// A waiter the sweep resolved is readied onto this
				// goroutine's processor, and a busy loop would keep it
				// there until the runtime preempts the loop, 10 ms on.
				if busy {
					runtime.Gosched()
				}
			}
		}
		switch {
		case busy:
			if idle > 0 {
				s.found()
			}
			idle = 0
		case idle < int(s):
			idle++
			runtime.Gosched()
		default:
			s.ranOut()
			idle = 0
			if n.relieveConns(false, true) || n.pumpers.Load() == 0 && n.armRings() {
				continue // the last look found something
			}
			wait := schedAt + DefaultSchedInterval - now
			if len(rings.backlog) > 0 {
				wait = min(wait, idleNap)
			}
			timer.Reset(wait)
			select {
			case <-n.dev.Wake():
			case <-timer.C:
			case <-n.done:
			}
			if !timer.Stop() {
				select { // fired, and not received above
				case <-timer.C:
				default:
				}
			}
			n.metrics.loopWakes.Add(1)
		}
	}
}

// kick makes the node's loop look: a pass now if it is parked, or one more
// before it parks next.
func (n *Node) kick() {
	select {
	case n.dev.Wake() <- struct{}{}:
	default:
	}
}

// schedule is the node's periodic work: it drains its outbound QPs — the
// relief of windows nobody waits on — and sweeps their pending-call tables
// for overdue attempts (so no call arms a timer of its own), runs the thread
// scheduler on each connection, then the QP scheduler's redistribute over
// the inbound ones.
func (n *Node) schedule(now time.Time) {
	for _, c := range n.snapshotConns() {
		for _, q := range c.qps {
			c.pollQP(q, &n.metrics.reliefCompletions, false)
		}
		for _, t := range c.snapshotThreads() {
			t.pend.expire(n.sinceStart(now))
		}
		n.scheduleConn(c)
	}
	n.redistribute()
}

// sinceStart is t in nanoseconds since the node was made: a deadline or a
// sweep's now as the pending tables keep it, in one atomic word.
func (n *Node) sinceStart(t time.Time) int64 { return int64(t.Sub(n.start)) }

// snapshotConns returns the current outbound connections. The returned
// slice is a shared immutable snapshot — callers must not mutate it. The
// node's loop reads it every pass, so it is cached and republished only
// when the set changes (Connect, Conn.Close) rather than copied per call.
func (n *Node) snapshotConns() []*Conn {
	return n.connsSnap.Load().([]*Conn)
}

// publishConnsLocked refreshes the dispatch snapshot; caller holds connMu.
func (n *Node) publishConnsLocked() {
	out := make([]*Conn, len(n.conns))
	copy(out, n.conns)
	n.connsSnap.Store(out)
}
