package rnic

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/fabric"
)

// Config configures a Device. The unexported fields are set by this
// package's tests only; every other device runs on their defaults.
type Config struct {
	// Node is the device's fabric address.
	Node fabric.NodeID
	// CacheSize bounds the connection-context cache (Figure 1/2 of the
	// paper). Zero disables the model: every access hits. The paper's
	// ConnectX-5 sustains roughly a few hundred hot QPs before thrashing
	// (peak at 176–704 QPs in Figure 2a); the DES calibrates to that.
	CacheSize int
	// cqDepth is the default depth for completion queues created by this
	// device. Zero means 4096.
	cqDepth int
	// rnrRetries bounds how many times the device re-attempts a send that
	// finds no receive buffer on an RC responder before completing with
	// StatusRNRExceeded. Zero means 1000.
	rnrRetries int
	// RCRetries bounds how many times the device retransmits an RC work
	// request whose transmission the fabric faults (loss, corruption,
	// link-down) before completing it with StatusRetryExceeded and moving
	// the QP to the error state — the IBTA transport retry counter. Zero
	// means 7, the hardware maximum. Faults only occur when the fabric has
	// a FaultPlan installed.
	RCRetries int
}

// Counters aggregates device activity. All fields are written atomically by
// whichever goroutine is executing work requests and may be read at any
// time via Device.Stats.
type Counters struct {
	// Doorbells counts PostSend calls — MMIO writes on real hardware.
	Doorbells uint64
	// WorkRequests counts posted send-queue WRs.
	WorkRequests uint64
	// Processed counts WRs the device has executed to a terminal state.
	Processed uint64
	// ForeignDoorbells counts doorbells served by a goroutine other than
	// the one that rang them: the ringer found the processing unit busy and
	// left its QP queued (flat combining on the NIC model).
	ForeignDoorbells uint64
	// DeferredRings counts waits turned into a re-ring: a WR that met an
	// unready receiver, an injected RC delay or a retransmit backoff stayed
	// at the head of its QP while a timer rang the doorbell again.
	DeferredRings uint64
	// CacheHits and CacheMisses count connection-context cache accesses
	// on this device, both requester- and responder-side; CacheEvictions
	// counts contexts pushed out by capacity pressure (each eviction is a
	// future miss — the thrashing signature of Figure 2).
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	// PCIeFetchNanos accumulates the modeled time cost of fetching evicted
	// connection contexts back over PCIe (pcieFetchNs per miss). The
	// functional tier only accounts it; the DES tier charges it.
	PCIeFetchNanos uint64
	// MRLookups counts MTT/MPT translations: every rkey resolution on the
	// responder side of a one-sided verb.
	MRLookups uint64
	// CompletionsDelivered counts CQ entries generated; Suppressed counts
	// successful unsignaled WRs that generated none (selective
	// signaling's saving, §7).
	CompletionsDelivered  uint64
	CompletionsSuppressed uint64
	// PacketsTX and BytesTX count outbound wire traffic.
	PacketsTX uint64
	BytesTX   uint64
	// UDDropsNoRecv counts inbound UD sends discarded because the target
	// QP had no receive buffer posted.
	UDDropsNoRecv uint64
	// UDDropsWire counts UD packets the fabric lost in flight.
	UDDropsWire uint64
	// RNRWaits counts responder-not-ready retry iterations on RC.
	RNRWaits uint64
	// AtomicOps counts executed fetch-add/cmp-swap verbs.
	AtomicOps uint64
	// RCRetransmits counts RC transmission attempts repeated after an
	// injected fault; RCRetryExhausted counts WRs whose retry budget ran
	// out (each moves its QP to the error state).
	RCRetransmits    uint64
	RCRetryExhausted uint64
	// WRFlushed counts work requests flushed with StatusWRFlush when
	// their QP entered the error state.
	WRFlushed uint64
	// UDCorrupted counts UD payloads delivered corrupted by the fabric.
	UDCorrupted uint64
}

func (c *Counters) add(f *uint64, n uint64) { atomic.AddUint64(f, n) }

// snapshot copies the counters with atomic loads.
func (c *Counters) snapshot() Counters {
	return Counters{
		Doorbells:             atomic.LoadUint64(&c.Doorbells),
		WorkRequests:          atomic.LoadUint64(&c.WorkRequests),
		Processed:             atomic.LoadUint64(&c.Processed),
		ForeignDoorbells:      atomic.LoadUint64(&c.ForeignDoorbells),
		DeferredRings:         atomic.LoadUint64(&c.DeferredRings),
		CacheHits:             atomic.LoadUint64(&c.CacheHits),
		CacheMisses:           atomic.LoadUint64(&c.CacheMisses),
		CacheEvictions:        atomic.LoadUint64(&c.CacheEvictions),
		PCIeFetchNanos:        atomic.LoadUint64(&c.PCIeFetchNanos),
		MRLookups:             atomic.LoadUint64(&c.MRLookups),
		CompletionsDelivered:  atomic.LoadUint64(&c.CompletionsDelivered),
		CompletionsSuppressed: atomic.LoadUint64(&c.CompletionsSuppressed),
		PacketsTX:             atomic.LoadUint64(&c.PacketsTX),
		BytesTX:               atomic.LoadUint64(&c.BytesTX),
		UDDropsNoRecv:         atomic.LoadUint64(&c.UDDropsNoRecv),
		UDDropsWire:           atomic.LoadUint64(&c.UDDropsWire),
		RNRWaits:              atomic.LoadUint64(&c.RNRWaits),
		AtomicOps:             atomic.LoadUint64(&c.AtomicOps),
		RCRetransmits:         atomic.LoadUint64(&c.RCRetransmits),
		RCRetryExhausted:      atomic.LoadUint64(&c.RCRetryExhausted),
		WRFlushed:             atomic.LoadUint64(&c.WRFlushed),
		UDCorrupted:           atomic.LoadUint64(&c.UDCorrupted),
	}
}

// Device is one software RNIC attached to a fabric node. It owns no
// goroutine: whichever goroutine rings a doorbell becomes the processing
// unit if there is none, and executes rung QPs' work requests in doorbell
// order; a ringer that finds the unit busy leaves its QP queued for it (see
// "Execution model" in the package comment). One unit at a time is the
// serialized processing unit of real NIC hardware; per-QP send ordering
// follows from it.
type Device struct {
	cfg   Config
	fab   *fabric.Fabric
	cache *connCache

	// mu serializes registration, QP creation and destruction, and Close.
	// The responder side of every WR reads qps and mrs without it.
	mu      sync.Mutex
	qps     denseTable[QP]        // by QPN
	mrs     denseTable[MemRegion] // by rkey
	numQPs  int                   // live entries of qps; under mu
	nextQPN int
	nextKey uint32
	closed  atomic.Bool // set under mu

	// The doorbell queue: rung QPs in doorbell order, linked through
	// QP.dbNext. A QP is on it at most once (QP.ringing).
	dbMu   sync.Mutex
	dbHead *QP
	dbTail *QP
	rung   atomic.Int32 // length of the doorbell queue

	// unit is true while some goroutine is the processing unit. Taking it
	// with a CAS and giving it up with a store orders one unit's writes
	// before the next one's reads.
	unit atomic.Bool
	// inflight counts QPs whose doorbell is outstanding: queued, in service,
	// or waiting out a deferred re-ring.
	inflight atomic.Int64

	// drainScratch stages one batch of WRs popped from a QP send queue.
	// Only the processing unit touches it, so reusing it across drain
	// rounds is race-free and saves one allocation per round.
	drainScratch [drainBudget]SendWR

	counters Counters

	wake chan struct{} // the completion channel (Wake)
}

// NewDevice creates a device and registers it on the fabric. Close detaches
// it and releases what abandoned work requests still own.
func NewDevice(fab *fabric.Fabric, cfg Config) (*Device, error) {
	if cfg.rnrRetries <= 0 {
		cfg.rnrRetries = 1000
	}
	if cfg.RCRetries <= 0 {
		cfg.RCRetries = 7
	}
	if cfg.cqDepth <= 0 {
		cfg.cqDepth = 4096
	}
	d := &Device{
		cfg:     cfg,
		fab:     fab,
		cache:   newConnCache(cfg.CacheSize),
		nextQPN: 1,
		nextKey: 1,
		wake:    make(chan struct{}, 1),
	}
	if err := fab.Register(d); err != nil {
		return nil, err
	}
	return d, nil
}

// Node implements fabric.Endpoint.
func (d *Device) Node() fabric.NodeID { return d.cfg.Node }

// Fabric returns the fabric this device is attached to.
func (d *Device) Fabric() *fabric.Fabric { return d.fab }

// Stats returns a snapshot of the device counters. Eviction counts live in
// the connection cache and are folded in here.
func (d *Device) Stats() Counters {
	s := d.counters.snapshot()
	_, _, s.CacheEvictions = d.cache.stats()
	return s
}

// CacheStats returns the connection-context cache hit/miss counts and the
// number of resident contexts.
func (d *Device) CacheStats() (hits, misses uint64, resident int) {
	h, m, _ := d.cache.stats()
	return h, m, d.cache.len()
}

// Close detaches the device from the fabric. Posted but unprocessed WRs are
// abandoned; the pool leases they own are released. Posts that race with
// Close either return ErrDeviceClosed, leaving the caller its lease, or are
// accepted and swept here.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed.Load() {
		d.mu.Unlock()
		return
	}
	d.closed.Store(true)
	qps := d.qps.all()
	d.mu.Unlock()

	// Take the unit role for good: the current unit leaves at its next
	// doorbell boundary, and nobody executes a WR while the send queues are
	// swept below or ever after.
	for !d.unit.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
	d.fab.Unregister(d.cfg.Node)

	for _, q := range qps {
		// PostSend checks closed under q.mu, so a post either landed before
		// this sweep took the lock or fails without enqueueing.
		q.mu.Lock()
		sends := q.sendq
		q.sendq = nil
		if q.timer != nil {
			q.timer.Stop()
		}
		q.mu.Unlock()
		for i := range sends {
			if sends[i].Pooled != nil {
				sends[i].Pooled.Release()
			}
		}
	}
}

// CreateCQ makes a completion queue with the device default depth.
func (d *Device) CreateCQ() *CQ {
	cq := NewCQ(d.cfg.cqDepth)
	cq.wake = d.wake
	return cq
}

// Wake returns the device's completion channel, capacity one, which its armed
// regions and CQs signal: one receive may stand for several landings. Its
// owner may send on it too, to make its receiver look.
func (d *Device) Wake() chan struct{} { return d.wake }

// CreateQP creates a queue pair of the given transport bound to the two
// completion queues (which may be the same). UD QPs are immediately ready;
// RC/UC QPs must be connected.
func (d *Device) CreateQP(t Transport, sendCQ, recvCQ *CQ) (*QP, error) {
	if sendCQ == nil || recvCQ == nil {
		return nil, fmt.Errorf("rnic: CreateQP requires completion queues")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return nil, ErrDeviceClosed
	}
	q := &QP{
		dev:       d,
		qpn:       d.nextQPN,
		transport: t,
		sendCQ:    sendCQ,
		recvCQ:    recvCQ,
	}
	if t == UD {
		q.state = qpReady
	}
	d.nextQPN++
	d.qps.put(q.qpn, q)
	d.numQPs++
	return q, nil
}

// DestroyQP removes the QP with the given number from the device's table,
// flushing any queued work requests as error completions first. Recovery
// layers that recycle broken QPs use it so repeatedly flapping connections
// do not accumulate dead queue pairs.
func (d *Device) DestroyQP(qpn int) {
	d.mu.Lock()
	q := d.qps.get(qpn)
	if q != nil {
		d.qps.put(qpn, nil)
		d.numQPs--
	}
	d.mu.Unlock()
	if q != nil {
		q.enterError()
	}
}

// QPByNumber returns the local QP with the given number, or nil. It takes
// no lock.
func (d *Device) QPByNumber(qpn int) *QP { return d.qps.get(qpn) }

// NumQPs reports how many QPs exist on the device.
func (d *Device) NumQPs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.numQPs
}

// RegisterMR registers a fresh buffer of size bytes with the given remote
// permissions and returns the region.
func (d *Device) RegisterMR(size int, perms Perm) (*MemRegion, error) {
	if size <= 0 {
		return nil, fmt.Errorf("rnic: RegisterMR size %d", size)
	}
	// Allocate and zero the buffer before taking mu: a lazy dial registers
	// megabyte rings while traffic flows, and other registrations and QP
	// creations on the device wait for mu.
	mr := &MemRegion{
		buf:   make([]byte, size),
		perms: perms,
		node:  int(d.cfg.Node),
	}
	mr.wake = d.wake
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return nil, ErrDeviceClosed
	}
	mr.lkey, mr.rkey = d.nextKey, d.nextKey
	mr.seq = mrSeq.Add(1)
	d.nextKey++
	d.mrs.put(int(mr.rkey), mr)
	return mr, nil
}

// lookupMR resolves an rkey to a region, nil if unknown. Each call models
// one MTT/MPT translation on the responder NIC; it takes no lock.
func (d *Device) lookupMR(rkey uint32) *MemRegion {
	d.counters.add(&d.counters.MRLookups, 1)
	return d.mrs.get(int(rkey))
}

// denseTable maps the values of a dense counter — QPNs, rkeys — to entries,
// for readers that take no lock. Readers index the published slice; writers,
// serialized by Device.mu, store into it in place, lengthen it into spare
// capacity, or copy it into one of twice the length, so an insertion costs
// O(1) amortised and nothing is allocated per lookup.
type denseTable[T any] struct {
	p atomic.Pointer[[]atomic.Pointer[T]]
}

// get returns entry i, nil if there is none.
func (t *denseTable[T]) get(i int) *T {
	s := t.p.Load()
	if s == nil || uint(i) >= uint(len(*s)) {
		return nil
	}
	return (*s)[i].Load()
}

// put sets entry i, nil to remove it. The caller holds Device.mu.
func (t *denseTable[T]) put(i int, v *T) {
	var s []atomic.Pointer[T]
	if p := t.p.Load(); p != nil {
		s = *p
	}
	if i < len(s) {
		s[i].Store(v)
		return
	}
	if i >= cap(s) {
		grown := make([]atomic.Pointer[T], len(s), 2*(i+1))
		for j := range s {
			grown[j].Store(s[j].Load())
		}
		s = grown
	}
	s = s[:i+1]
	s[i].Store(v)
	t.p.Store(&s)
}

// all returns the entries that are set. The caller holds Device.mu.
func (t *denseTable[T]) all() []*T {
	var out []*T
	if p := t.p.Load(); p != nil {
		for i := range *p {
			if v := (*p)[i].Load(); v != nil {
				out = append(out, v)
			}
		}
	}
	return out
}

// ConnectPair creates one RC (or UC) QP on each of a and b, connects them
// to each other, and returns them. Each QP gets its own send CQ and recv
// CQ created with the device defaults. It is the in-process stand-in for
// out-of-band connection exchange.
func ConnectPair(a, b *Device, t Transport) (*QP, *QP, error) {
	if t == UD {
		return nil, nil, ErrWrongTranport
	}
	qa, err := a.CreateQP(t, a.CreateCQ(), a.CreateCQ())
	if err != nil {
		return nil, nil, err
	}
	qb, err := b.CreateQP(t, b.CreateCQ(), b.CreateCQ())
	if err != nil {
		return nil, nil, err
	}
	if err := qa.Connect(int(b.Node()), qb.QPN()); err != nil {
		return nil, nil, err
	}
	if err := qb.Connect(int(a.Node()), qa.QPN()); err != nil {
		return nil, nil, err
	}
	return qa, qb, nil
}

// ring puts q on the doorbell queue and serves the queue on the calling
// goroutine unless some other goroutine already does. It never blocks and
// never waits: the work a ringer does is bounded by drainBudget of its own
// WRs plus stintBudget foreign ones.
func (d *Device) ring(q *QP) {
	d.pushDoorbell(q)
	d.serve(q)
}

// pushDoorbell appends q to the doorbell queue.
func (d *Device) pushDoorbell(q *QP) {
	d.dbMu.Lock()
	if d.dbTail == nil {
		d.dbHead = q
	} else {
		d.dbTail.dbNext = q
	}
	d.dbTail = q
	d.rung.Add(1)
	d.dbMu.Unlock()
}

// popDoorbell removes the oldest rung QP, nil if there is none.
func (d *Device) popDoorbell() *QP {
	d.dbMu.Lock()
	q := d.dbHead
	if q != nil {
		d.dbHead, q.dbNext = q.dbNext, nil
		if d.dbHead == nil {
			d.dbTail = nil
		}
		d.rung.Add(-1)
	}
	d.dbMu.Unlock()
	return q
}

// Quiesce returns once every posted WR has been executed. It is a test and
// benchmark aid; applications rely on completions instead.
func (d *Device) Quiesce() {
	for d.inflight.Load() != 0 && !d.closed.Load() {
		runtime.Gosched() // the unit may be any goroutine, this CPU's next one included
	}
}

// drainBudget bounds how many WRs the unit executes from one QP before
// arbitrating to the next rung QP, as NIC hardware round-robins WQE
// processing across queue pairs. Without it one deep send queue could
// starve every other connection.
const drainBudget = 16

// stintBudget bounds how many WRs a ringer executes after one visit to its
// own QP before it passes the unit role on: a poster (a TCQ leader, a
// response flusher) must get back to its own work however busy the device
// is.
const stintBudget = 2 * drainBudget

// serve makes the calling goroutine the processing unit, if there is none,
// and executes rung doorbells in order. own is the QP the caller rang, nil
// for a relief goroutine, which has no work of its own and serves until the
// queue is empty.
//
// No doorbell is lost: a ringer queues its QP before it tries for the role,
// and the unit looks at the queue again after giving the role up, so
// whichever of the two comes second sees the other.
func (d *Device) serve(own *QP) {
	for d.rung.Load() != 0 && !d.closed.Load() {
		if !d.unit.CompareAndSwap(false, true) {
			return // the unit will reach our QP
		}
		relieve := d.stint(own)
		d.unit.Store(false)
		if relieve {
			go d.serve(nil)
			return
		}
	}
}

// stint drains rung QPs until the doorbell queue is empty, the device
// closes, or — for a ringer — stintBudget WRs beyond the first visit to its
// own QP have been executed with work still queued, which it reports so
// that serve can pass the role to a relief goroutine. The caller holds the
// unit role.
func (d *Device) stint(own *QP) (relieve bool) {
	ownServed := false
	spent := 0 // WRs executed beyond the first visit to own
	for !d.closed.Load() {
		q := d.popDoorbell()
		if q == nil {
			return false
		}
		n := d.drain(q)
		if q != own {
			d.counters.add(&d.counters.ForeignDoorbells, 1)
		} else if !ownServed {
			ownServed = true
			continue
		}
		spent += n
		if own != nil && spent >= stintBudget && d.rung.Load() != 0 {
			return true
		}
	}
	return false
}

// drain executes up to drainBudget of q's queued WRs and returns how many
// reached a terminal state. It ends in one of three ways: the send queue is
// observed empty and the doorbell is retired; the budget is spent and q
// goes behind the other rung QPs; or the WR at the head has to wait and q
// is parked until its timer rings it again (deferRing).
func (d *Device) drain(q *QP) int {
	done := 0
	for {
		q.mu.Lock()
		if len(q.sendq) == 0 {
			q.ringing = false
			q.mu.Unlock()
			d.inflight.Add(-1)
			return done
		}
		if done == drainBudget {
			q.mu.Unlock()
			d.pushDoorbell(q)
			return done
		}
		n := len(q.sendq)
		if done+n > drainBudget {
			n = drainBudget - done
		}
		batch := d.drainScratch[:n]
		copy(batch, q.sendq)
		rem := copy(q.sendq, q.sendq[n:])
		q.sendq = q.sendq[:rem]
		q.mu.Unlock()

		for i := 0; i < n; {
			if wait := d.execute(q, &batch[i]); wait > 0 {
				if d.deferRing(q, batch[i:], wait) {
					return done
				}
				continue // the QP broke meanwhile: execute again flushes the WR
			}
			d.counters.add(&d.counters.Processed, 1)
			batch[i] = SendWR{} // drop payload references until the next round
			i++
			done++
		}
	}
}

// deferRing turns a wait into a re-ring: the unexecuted WRs go back to the
// front of q's send queue, q stays marked ringing so that later posts queue
// behind them without a doorbell, and a timer rings q again after wait. The
// unit moves on to the next rung QP at once — a stall is per QP, as on
// hardware. It reports false, leaving everything as it was, if q entered the
// error state while its head WR was executing.
func (d *Device) deferRing(q *QP, rest []SendWR, wait time.Duration) bool {
	q.mu.Lock()
	if q.state == qpError {
		q.mu.Unlock()
		return false
	}
	q.sendq = slices.Insert(q.sendq, 0, rest...)
	if q.timer == nil {
		q.timer = time.AfterFunc(wait, func() { d.ring(q) })
	} else {
		q.timer.Reset(wait)
	}
	q.mu.Unlock()
	clear(rest) // the scratch copies: drop their payload references
	d.counters.add(&d.counters.DeferredRings, 1)
	return true
}
