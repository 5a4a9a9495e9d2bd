package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"flock/internal/fabric"
	"flock/internal/resilience"
	"flock/internal/rnic"
	"flock/internal/stats"
	"flock/internal/telemetry"
)

// Control-region layout. Each QP has a small control MR on each side,
// written remotely with one-sided RDMA so no CPU coordination is needed:
//
// Client control region (written by the server's QP scheduler):
//
//	+0  granted   uint64  total credits ever granted on this QP
//	+8  active    uint64  1 = QP active, 0 = deactivated (§5.1)
//	+16 respHead  uint64  client's consumed head of the response ring
//	                      (published locally; the server RDMA-reads it
//	                      when starved for response-ring space)
//
// Server control region (published by the request ring's poller):
//
//	+0  reqHead   uint64  server's consumed head of the request ring
//	                      (the client RDMA-reads it when starved; the
//	                      fast path learns it from response piggybacks)
const (
	ctrlGrantedOff  = 0
	ctrlActiveOff   = 8
	ctrlRespHeadOff = 16
	ctrlBytes       = 64

	srvCtrlReqHeadOff = 0
	srvCtrlBytes      = 64
)

// Work-request ID tags. The top byte classifies the completion so whoever
// holds the QP's poll role can demultiplex operations of threads sharing
// it — the wr_id annotation of §6.
const (
	tagShift         = 56
	tagMsg    uint64 = 1 << tagShift // coalesced message write
	tagMem    uint64 = 2 << tagShift // one-sided memory/atomic op
	tagFresh  uint64 = 3 << tagShift // head-refresh RDMA read
	tagCtrl   uint64 = 4 << tagShift // scheduler control write
	tagMarker uint64 = 5 << tagShift // ring wrap marker write
	tagRenew  uint64 = 6 << tagShift // credit-renewal write-imm
	tagMask   uint64 = 0xff << tagShift
)

// A memory-op WRID is tag (8 bits) | thread ID (12) | call ID's low 44
// bits: its slot (slotBits, 16) and the low 28 bits of its generation. A
// stale completion can name a live call only after its slot was reused
// 1<<28 times, as rarely as a 28-bit sequence number wraps.
const (
	memSeqBits    = 44
	memSeqMask    = 1<<memSeqBits - 1 // the call-ID bits a memory-op WRID carries
	memThreadMask = 1<<(tagShift-memSeqBits) - 1
)

// memWRID packs a memory-op completion identity: tag | threadID | the
// call ID's low bits (pendingTable.complete matches them against the slot).
func memWRID(threadID uint32, seq uint64) uint64 {
	return tagMem | uint64(threadID)<<memSeqBits | seq&memSeqMask
}

// memWRThread recovers the thread ID from a memory-op WRID.
func memWRThread(wrid uint64) uint32 {
	return uint32(wrid>>memSeqBits) & memThreadMask
}

// Conn is the connection handle (§3): the client side of a FLock
// connection to one remote node, multiplexing opts.QPsPerConn RC queue
// pairs among any number of registered threads.
type Conn struct {
	node   *Node
	remote fabric.NodeID
	qps    []*connQP

	// threads is the registered thread set, indexed by thread ID: an
	// immutable snapshot RegisterThread republishes under threadMu (threads
	// are never removed), so a poller resolves a response's thread and
	// the scheduler walks the set without a lock or a copy.
	threadMu sync.Mutex
	threads  atomic.Pointer[[]*Thread]

	// sched is the thread scheduler's scratch and statDirty its cue that
	// some thread recorded a request since the last interval (see
	// scheduleConn); only the node's loop (run) touches sched.
	sched     schedScratch
	statDirty atomic.Bool

	// failed marks the handle fatally dead; failErr remembers why, so
	// closedErr can tell callers the true cause ("retry elsewhere" drain
	// pushback vs "give up" closure) instead of a generic ErrConnClosed.
	failed  atomic.Bool
	failErr atomic.Pointer[error]
	// dead is closed by the fail that sets failed, for what blocks on the
	// handle alone (RecvRes with nothing outstanding).
	dead chan struct{}

	// retryBudget is the connection-wide token bucket gating the retries
	// of calls that asked for more than one attempt.
	retryBudget *resilience.Budget
}

// connQP is the client end of one shared queue pair.
type connQP struct {
	idx  int
	conn *Conn
	qp   *rnic.QP

	prod     *ringProducer   // request producer → server request ring
	respCons *ringConsumer   // response ring's consumer, the poll role's
	ctrl     *rnic.MemRegion // client control region (server writes it)

	tcq tcq

	// Leader-owned state; leadership hand-offs through the TCQ's atomic
	// state transitions order access.
	consumed    uint64 // credits consumed
	askMark     uint64 // consumed value at the last renewal request
	askOut      bool   // a renewal is outstanding
	askSnapshot uint64 // granted value when the renewal was posted
	degrees     *stats.RunningMedian
	degHist     *telemetry.Hist // coalescing degree of every posted message

	// Batch-processing scratch, reused across leader turns (leader-owned
	// like the fields above, so no locking). PostSend copies WRs, making
	// reuse after it returns safe.
	wrScratch  []rnic.SendWR
	rpcScratch []*tcqNode
	memScratch []*tcqNode

	// ctrlWord is the control words as last read (ctrlView), packed for any
	// goroutine to load: the low 32 bits of the region's Version before that
	// read, granted's low 31 bits, and active in bit 0.
	ctrlWord atomic.Uint64

	// The poll role (see pollQP): polling is true while some goroutine — a
	// waiter, a starved leader or the node's loop — drains the response ring
	// and the send CQ, and only the holder touches respCons or cqBuf.
	polling atomic.Bool
	cqBuf   [16]rnic.Completion
	// parked counts the waiters blocked on an attempt that rode the QP: while
	// it is nonzero the QP is the node's loop's (relieveConns).
	parked atomic.Int32

	// Fault state. broken marks the QP failed and under recycle: leaders
	// bail out via active(), pollers skip it, and the recycler owns all of
	// the QP's state once the leaders counter drains to zero and the poll
	// role is free. Clearing broken is the release edge that republishes the
	// recycled state. disabled marks a QP quarantined for good (see
	// flapping).
	broken   atomic.Bool
	disabled atomic.Bool
	leaders  atomic.Int32 // threads currently inside the leader path

	// Recovery evidence (recovery.go). pollQP moves heard when it routes a
	// response, stale ones included, and sent when it routes an OK send
	// completion. strikeHeard and strikes are the current run of silent
	// deadline expiries and the heard value they share, under strikeMu.
	// The rest are the recycler's own (see flapping): the breaks in a row
	// with sent unmoved, sent at the last break, and the siblings' sent when
	// the streak began and at the last break.
	heard, sent  atomic.Uint32
	strikeMu     sync.Mutex
	strikeHeard  uint32
	strikes      int
	streak       int
	sentMark     uint32
	siblingsMark uint32
	siblingsLast uint32
}

// active reports whether leaders may use the QP: the scheduler-controlled
// activation flag (§5.1) gated by the local fault state, for any goroutine.
func (q *connQP) active() bool {
	return !q.broken.Load() && !q.disabled.Load() && q.ctrlView()&1 == 1
}

// leaderView is active() and the total credits granted by the server,
// rebuilt from ctrlWord's low 31 bits: granted is never behind the credits
// consumed, nor 1<<31 ahead (validate bounds Credits). A grant past the
// outstanding renewal's snapshot answers it, so the view clears askOut.
// Leader-owned, like the state it reads and writes — and which a broken
// QP's recycler owns, so the fault state is checked first.
func (q *connQP) leaderView() (granted uint64, active bool) {
	if q.broken.Load() || q.disabled.Load() {
		return 0, false
	}
	w := q.ctrlView()
	granted = q.consumed + uint64((uint32(w>>1)-uint32(q.consumed))&grantedMask)
	if q.askOut && granted > q.askSnapshot {
		q.askOut = false
	}
	return granted, w&1 == 1
}

// grantedMask keeps the bits of granted that ctrlWord holds.
const grantedMask = 1<<31 - 1

// ctrlView returns ctrlWord as of the control region's current Version,
// refilled by one locked read of both words when the Version moved, so a
// call over a region nobody wrote takes no lock. The Version is read first,
// so a write the read misses moves it past the word's tag, and concurrent
// refills each store a whole word tagged with its own read. A stale word
// would need 1<<32 writes to the region with no call in between.
func (q *connQP) ctrlView() uint64 {
	v := q.ctrl.Version()
	w := q.ctrlWord.Load()
	if uint32(w>>32) == uint32(v) {
		return w
	}
	var b [16]byte
	q.readCtrl(b[:], ctrlGrantedOff)
	w = v<<32 | (binary.LittleEndian.Uint64(b[:8])&grantedMask)<<1
	if binary.LittleEndian.Uint64(b[8:]) == 1 {
		w |= 1
	}
	q.ctrlWord.Store(w)
	return w
}

// readCtrl is every locked read of the client control region.
func (q *connQP) readCtrl(dst []byte, off int) {
	if ctrlReadHook != nil {
		ctrlReadHook()
	}
	q.ctrl.ReadAt(dst, off) //nolint:errcheck // fixed layout inside the region
}

// ctrlReadHook, when non-nil, runs at every locked control-region read, so
// tests can count them; production leaves it nil.
var ctrlReadHook func()

// connectArgs is the client half of the out-of-band handshake.
type connectArgs struct {
	clientNode fabric.NodeID
	qps        []connectQPArgs
}

type connectQPArgs struct {
	qpn            int // client QP number
	respRingRKey   uint32
	clientCtrlRKey uint32
}

// connectReply is the server half of the handshake.
type connectReply struct {
	qps []connectQPReply
}

type connectQPReply struct {
	qpn            int // server QP number
	reqRingRKey    uint32
	serverCtrlRKey uint32
}

// Connect opens a connection handle to a remote serving node
// (fl_connect in Table 2). It creates the QP set, registers the ring and
// control regions on both ends, and performs the in-process equivalent of
// the out-of-band bootstrap exchange.
func (n *Node) Connect(remote fabric.NodeID) (*Conn, error) {
	if n.closing() {
		return nil, ErrClosed
	}
	rnode := n.net.node(remote)
	if rnode == nil {
		return nil, ErrNoSuchNode
	}
	if !rnode.Serving() {
		return nil, ErrNotServing
	}

	c := &Conn{
		node:        n,
		remote:      remote,
		retryBudget: resilience.NewBudget(DefaultRetryBudgetRatio, n.opts.test.retryBudgetBurst),
		dead:        make(chan struct{}),
	}
	args := connectArgs{clientNode: n.id}
	for i := 0; i < n.opts.QPsPerConn; i++ {
		q, err := n.newConnQP(c, i)
		if err != nil {
			return nil, err
		}
		c.qps = append(c.qps, q)
		args.qps = append(args.qps, connectQPArgs{
			qpn:            q.qp.QPN(),
			respRingRKey:   q.respCons.mr.RKey(),
			clientCtrlRKey: q.ctrl.RKey(),
		})
	}

	reply, err := rnode.accept(args)
	if err != nil {
		return nil, err
	}
	for i, q := range c.qps {
		r := reply.qps[i]
		if err := q.qp.Connect(int(remote), r.qpn); err != nil {
			return nil, err
		}
		q.prod.rkey, q.prod.headRKey = r.reqRingRKey, r.serverCtrlRKey
	}

	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.closing() {
		return nil, ErrClosed
	}
	n.conns = append(n.conns, c)
	n.allConns = append(n.allConns, c)
	n.publishConnsLocked()
	n.startLocked()
	return c, nil
}

// newConnQP builds the client end of one QP: queue pair, request-ring
// producer, response ring and control region.
func (n *Node) newConnQP(c *Conn, idx int) (*connQP, error) {
	qp, err := n.dev.CreateQP(rnic.RC, n.dev.CreateCQ(), n.dev.CreateCQ())
	if err != nil {
		return nil, err
	}
	prod, err := newRingProducer(n.dev, n.opts.test.ringBytes, srvCtrlReqHeadOff)
	if err != nil {
		return nil, err
	}
	respRing, err := n.dev.RegisterMR(n.opts.test.ringBytes, rnic.PermRemoteWrite|rnic.PermRemoteRead)
	if err != nil {
		return nil, err
	}
	ctrl, err := n.dev.RegisterMR(ctrlBytes, rnic.PermRemoteWrite|rnic.PermRemoteRead)
	if err != nil {
		return nil, err
	}
	q := &connQP{
		idx:      idx,
		conn:     c,
		qp:       qp,
		prod:     prod,
		respCons: newRingConsumer(respRing, ctrl, ctrlRespHeadOff),
		ctrl:     ctrl,
		degrees:  stats.NewRunningMedian(32),
		// Get-or-create so a recycled QP keeps accumulating into the same
		// series (the per-QP view Figure 10's analysis wants).
		degHist: n.tel.Hist(fmt.Sprintf("conn%d.qp%d.coalesce_degree", c.remote, idx)),
	}
	// Bootstrap: C credits (§5.1), QP active.
	ctrl.Store64(ctrlGrantedOff, uint64(n.opts.Credits))
	ctrl.Store64(ctrlActiveOff, 1)
	return q, nil
}

// Remote returns the node this handle is connected to.
func (c *Conn) Remote() fabric.NodeID { return c.remote }

// NumQPs returns the connection's multiplexing width.
func (c *Conn) NumQPs() int { return len(c.qps) }

// ActiveQPs returns the indexes of currently active QPs.
func (c *Conn) ActiveQPs() []int { return c.appendActiveQPs(nil) }

// appendActiveQPs appends the indexes of currently active QPs to dst.
func (c *Conn) appendActiveQPs(dst []int) []int {
	for i, q := range c.qps {
		if q.active() {
			dst = append(dst, i)
		}
	}
	return dst
}

// closedCh reports the owning node's done channel.
func (c *Conn) closedCh() <-chan struct{} { return c.node.done }

// isClosed reports whether the node is shutting down or the connection
// failed fatally.
func (c *Conn) isClosed() bool {
	return c.failed.Load() || c.node.closing()
}

// Close tears down the connection handle: subsequent operations return
// ErrClosed, threads blocked on it — in a wait or in RecvRes — are released
// at once, and the handle is removed from the node's relief set.
// Server-side resources are reclaimed when the server node closes
// (connection-level teardown messages are future work, as in the paper's
// prototype).
func (c *Conn) Close() {
	n := c.node
	n.connMu.Lock()
	for i, other := range n.conns {
		if other == c {
			n.conns = append(n.conns[:i], n.conns[i+1:]...)
			break
		}
	}
	n.publishConnsLocked()
	n.connMu.Unlock()
	c.fail(ErrConnClosed)
}

// fail marks the connection fatally failed and releases every waiter with
// a typed poison response: all pending-call records (whatever QP they
// rode, RPC or memory operation) are completed with the closure. The
// cause is recorded before the failed flag is published, so closedErr
// never observes the flag without it.
func (c *Conn) fail(err error) {
	cause := err
	c.failErr.CompareAndSwap(nil, &cause)
	if c.failed.Swap(true) {
		return
	}
	close(c.dead)
	for _, t := range c.snapshotThreads() {
		t.pend.failMatching(-1, &Response{Status: StatusConnClosed, err: err})
	}
}

// thread returns the registered thread with the given ID, or nil.
func (c *Conn) thread(id uint32) *Thread {
	if ts := c.snapshotThreads(); int(id) < len(ts) {
		return ts[id]
	}
	return nil
}

// snapshotThreads returns the registered thread set, indexed by thread ID.
// The slice is shared and immutable — callers must not mutate it.
func (c *Conn) snapshotThreads() []*Thread {
	if ts := c.threads.Load(); ts != nil {
		return *ts
	}
	return nil
}

// RemoteRegion is a handle to server memory attached for one-sided
// operations (fl_attach_mreg, §6). All of the connection's threads may
// target it with Read/Write/FetchAdd/CompareSwap.
type RemoteRegion struct {
	conn *Conn
	rkey uint32
	size int
}

// Size returns the region's length in bytes.
func (r *RemoteRegion) Size() int { return r.size }

// AttachMemRegion allocates a memory region of the given size on the
// remote node and attaches it to the connection handle for one-sided
// memory and atomic operations.
func (c *Conn) AttachMemRegion(size int) (*RemoteRegion, error) {
	if c.isClosed() {
		return nil, ErrClosed
	}
	rnode := c.node.net.node(c.remote)
	if rnode == nil {
		return nil, ErrNoSuchNode
	}
	mr, err := rnode.dev.RegisterMR(size, rnic.PermRemoteRead|rnic.PermRemoteWrite|rnic.PermRemoteAtomic)
	if err != nil {
		return nil, err
	}
	return &RemoteRegion{conn: c, rkey: mr.RKey(), size: size}, nil
}

// ExportMR registers a memory region of the given size on this node under
// a name, so remote connection handles can attach it with AttachNamed. It
// is how a server exposes application state (e.g. a key-value store) to
// clients' one-sided operations, as FLockTX's validation phase requires.
func (n *Node) ExportMR(name string, size int) (*rnic.MemRegion, error) {
	mr, err := n.dev.RegisterMR(size, rnic.PermRemoteRead|rnic.PermRemoteWrite|rnic.PermRemoteAtomic)
	if err != nil {
		return nil, err
	}
	n.exportMu.Lock()
	defer n.exportMu.Unlock()
	if n.exports == nil {
		n.exports = make(map[string]*rnic.MemRegion)
	}
	if _, dup := n.exports[name]; dup {
		return nil, fmt.Errorf("flock: region %q already exported", name)
	}
	n.exports[name] = mr
	return mr, nil
}

// AttachNamed attaches a region the remote node exported with ExportMR.
func (c *Conn) AttachNamed(name string) (*RemoteRegion, error) {
	if c.isClosed() {
		return nil, ErrClosed
	}
	rnode := c.node.net.node(c.remote)
	if rnode == nil {
		return nil, ErrNoSuchNode
	}
	rnode.exportMu.Lock()
	mr := rnode.exports[name]
	rnode.exportMu.Unlock()
	if mr == nil {
		return nil, fmt.Errorf("flock: remote node exports no region %q", name)
	}
	return &RemoteRegion{conn: c, rkey: mr.RKey(), size: mr.Len()}, nil
}

// maxMsgBytes is the largest coalesced message the options permit; rings
// must hold at least two of them.
func (o Options) maxMsgBytes() int {
	return headerBytes + o.MaxBatch*(itemMetaBytes+pad8(o.test.maxPayload)) + trailerBytes
}

// validate checks option consistency for ring geometry.
func (o Options) validate() error {
	if o.QPsPerConn > qpMask+1 {
		return fmt.Errorf("flock: %d QPs per connection, past the %d a call record can name", o.QPsPerConn, qpMask+1)
	}
	if o.Credits >= 1<<29 {
		return fmt.Errorf("flock: %d credits per QP, more than the %d a QP's cached control words count", o.Credits, 1<<29-1)
	}
	if o.test.ringBytes < 2*o.maxMsgBytes() {
		return fmt.Errorf("flock: a %d-byte ring cannot hold two max messages (%d); lower MaxBatch",
			o.test.ringBytes, o.maxMsgBytes())
	}
	return nil
}
