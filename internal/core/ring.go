package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"flock/internal/mem"
	"flock/internal/rnic"
)

// zeroPage is a shared read-only slab of zeros used to clear consumed ring
// space and whole rings during QP recycle. One page for the whole
// package: the writers only ever read from it.
var zeroPage [4096]byte

// ringProducer is the sender's end of one ring buffer (§4), the client's
// request ring or the server's response ring: a local staging region
// mirroring the receiver's ring, a monotonic tail, and a cached copy of the
// receiver's consumed Head. The producer reserves space, lets threads stage
// their payloads, and the leader ships the span with a single RDMA write to
// the same offset in the remote ring.
type ringProducer struct {
	staging *rnic.MemRegion // local mirror of the remote ring
	size    int             // staging's length (see ringConsumer.size)
	rkey    uint32          // remote ring MR
	tail    uint64          // monotonic bytes produced; current-leader-owned
	msgSeq  uint64          // messages sealed, the selective-signalling counter; owned like tail

	// cached is the monotonic consumed head as last learned (the
	// "sender's copy of Head", §4.1). Whoever polls the response ring advances
	// it from piggybacked headers concurrently with the leader reading it,
	// hence atomic.
	cached atomic.Uint64

	// The starved producer's step (§4.1: "the sender rarely reads"): one
	// RDMA read at a time of the consumer's published head — headOff in the
	// peer's control region headRKey — into readback. refreshing is set from
	// the read's post until its completion is applied.
	readback   *rnic.MemRegion
	headRKey   uint32
	headOff    int
	refreshing atomic.Bool
}

// newRingProducer registers a producer's staging region, ringBytes long, and
// its readback region on dev. The caller sets rkey and headRKey from the
// peer's half of the bootstrap.
func newRingProducer(dev *rnic.Device, ringBytes, headOff int) (*ringProducer, error) {
	staging, err := dev.RegisterMR(ringBytes, 0)
	if err != nil {
		return nil, err
	}
	readback, err := dev.RegisterMR(8, 0)
	if err != nil {
		return nil, err
	}
	return &ringProducer{staging: staging, size: staging.Len(), readback: readback, headOff: headOff}, nil
}

// reset returns the producer to the fresh-ring state after a QP recycle:
// nothing produced, nothing known consumed, no refresh in flight (nobody
// polls the destroyed QP's CQ). The caller must have excluded every
// concurrent producer and cache-updater first.
func (p *ringProducer) reset() {
	p.tail = 0
	p.msgSeq = 0
	p.cached.Store(0)
	p.refreshing.Store(false)
}

// updateCached advances the cached consumed head (monotonic, so stale
// piggybacked values are harmless).
func (p *ringProducer) updateCached(h uint64) {
	for {
		cur := p.cached.Load()
		if h <= cur || p.cached.CompareAndSwap(cur, h) {
			return
		}
	}
}

// reservation describes ring space handed out by reserve.
type reservation struct {
	msgOff    int // staging/remote offset where the message goes
	msgLen    int // its length, header and trailing canary included
	markerOff int // offset of a wrap marker to transmit, or -1
}

// reserve allocates space for a message of msgLen bytes, returning false
// if the ring lacks room by the cached head. If the message would straddle
// the ring end, an 8-byte wrap marker is staged at the current tail and the
// message starts at offset 0.
func (p *ringProducer) reserve(msgLen int) (reservation, bool) {
	r := reservation{msgLen: msgLen, markerOff: -1}
	off := int(p.tail) % p.size
	need := msgLen
	rem := 0
	if off+msgLen > p.size {
		rem = p.size - off
		need += rem
	}
	if need > p.size-int(p.tail-p.cached.Load()) {
		return r, false
	}
	if rem > 0 {
		// Stage the wrap marker; it is transmitted by the caller ahead of
		// the message so the receiver skips to offset zero.
		var marker [8]byte
		binary.LittleEndian.PutUint32(marker[0:], wrapMarker)
		p.staging.WriteAt(marker[:], off) //nolint:errcheck // in range by construction
		r.markerOff = off
		p.tail += uint64(rem)
		off = 0
	}
	r.msgOff = off
	p.tail += uint64(msgLen)
	return r, true
}

// reserveOrRefresh is reserve for a producer that may be starved: when the
// ring lacks room it posts, on qp, the head refresh — unless one is in flight
// — and returns false and the post's error. Whoever polls qp's send CQ next
// applies the refresh (applyRefresh), and a later call finds the room.
func (p *ringProducer) reserveOrRefresh(qp *rnic.QP, msgLen int) (reservation, bool, error) {
	if res, ok := p.reserve(msgLen); ok || p.refreshing.Swap(true) {
		return res, ok, nil
	}
	err := qp.PostSend(rnic.SendWR{
		WRID: tagFresh, Op: rnic.OpRead,
		LocalMR: p.readback, LocalLen: 8,
		RKey: p.headRKey, RemoteOff: p.headOff,
		Signaled: true,
	})
	if err != nil {
		p.refreshing.Store(false)
	}
	return reservation{}, false, err
}

// applyRefresh applies a head refresh's completion: an OK read advances the
// cached head to the one read, a failed one leaves it to the QP's recovery.
// Either way the next starved reservation may post another.
func (p *ringProducer) applyRefresh(comp rnic.Completion) {
	if comp.Status == rnic.StatusOK {
		p.updateCached(p.readback.Load64(0))
	}
	p.refreshing.Store(false)
}

// ringConsumer is the receiver's view of one ring buffer: it polls the
// position after the last message it read for the next complete one,
// validates canaries, and gives ring space back — zeroed — once the messages
// in it are finished, publishing its consumed head for the producer
// (piggybacked on responses and readable via one-sided RDMA when the
// producer is starved). A message is read where it lands: pollView decodes it
// as views over the ring itself, and the space stays the reader's until
// finish. The producer never writes past the consumed head it has learned, so
// a message not yet finished cannot be overwritten; a full ring back-pressures
// the producer instead.
type ringConsumer struct {
	mr   *rnic.MemRegion // the ring, the whole region
	size int             // mr's length, kept off the region's contended lock line

	// head is the monotonic consumed counter: every byte before it is
	// finished and zeroed. finish advances it, under mu; response-flush
	// paths on other goroutines read it for piggybacking, hence atomic.
	head atomic.Uint64

	// next is the monotonic read cursor, at or ahead of head: the messages
	// between the two have been read and are not all finished. Only the
	// ring's one poller touches it — the holder of the QP's poll role (on a
	// server without a worker pool, the node's loop).
	next uint64

	// mu guards window: the spans between head and next, in ring order, each
	// with whether it is finished. Messages of one ring can finish out of
	// order and on different goroutines (a pump releases the poll role before
	// the worker-lane handlers of what it pulled run), so head moves only over
	// the finished prefix. A wrap marker enters finished.
	mu     sync.Mutex
	window []ringSpan

	publishMR  *rnic.MemRegion // control region carrying the consumed head
	publishOff int

	items []decodedItem // reusable decode scratch, overwritten per poll

	// emptyAt is the region version (rnic.MemRegion.Version) the last poll
	// read before it found no complete message at next, or noVersion. While
	// the region still has that version nothing has been written since, so
	// a poll is that one comparison. Only the polling goroutine writes it;
	// it is atomic so that idle can read it without the poll role.
	emptyAt atomic.Uint64
}

// ringSpan is one read message, or a wrap marker, in a consumer's window.
type ringSpan struct {
	end  uint64 // monotonic position just past it
	done bool   // finished: its space may be zeroed and given back
}

// noVersion is an emptyAt no region reaches: the next poll looks.
const noVersion = ^uint64(0)

// newRingConsumer builds a consumer of the ring mr that publishes its
// consumed head at publishOff of publishMR.
func newRingConsumer(mr, publishMR *rnic.MemRegion, publishOff int) *ringConsumer {
	c := &ringConsumer{mr: mr, size: mr.Len(), publishMR: publishMR, publishOff: publishOff}
	c.emptyAt.Store(noVersion)
	return c
}

// consumed returns the monotonic consumed-head counter.
func (c *ringConsumer) consumed() uint64 { return c.head.Load() }

// reset zeroes the ring, rewinds the consumer to offset zero and
// republishes, matching a recycled producer that restarts at tail zero. The
// caller must have destroyed the QP first, which flushes every write still
// queued for the ring, and excluded every poller and every holder of an
// unfinished message: on a client, broken is set and the QP's poll role is
// free, so whoever takes the role next leaves without polling (and a client
// finishes each message as it reads it); on a server, broken is set and the
// QP's inuse count has drained, and the poll role is only ever taken, and a
// pulled message only ever held, inside that count.
func (c *ringConsumer) reset() {
	c.zeroRange(0, c.size)
	c.next = 0
	c.window = c.window[:0]
	c.head.Store(0)
	c.emptyAt.Store(noVersion) // what was empty was the old read position
	c.publish()
}

// pollView checks the read position for one complete message and decodes it
// in place. It returns the decoded header, the items — views over the ring
// itself — and the message's end position, and true; or false if no complete
// message is available. The views stay valid, and the message's ring space
// taken, until finish(end), which the caller must call exactly once when it
// is done with them. The item slice is consumer-owned scratch, overwritten by
// the next poll. Incomplete messages — header visible but trailing canary not
// yet placed — are left untouched for the next poll, exactly the §4.1
// protocol. A server's request ring is read only this way.
func (c *ringConsumer) pollView() (header, []decodedItem, uint64, bool) {
	for {
		off, n, end, ok := c.claim()
		if !ok {
			return header{}, nil, 0, false
		}
		h, items, err := decodeMessageInto(c.mr.View(off, n), c.items)
		c.items = items[:0]
		if err == nil {
			return h, items, end, true
		}
		// Structurally corrupt despite matching canaries: drop the message
		// to keep the ring live. This cannot happen with a well-behaved
		// producer.
		c.finish(end)
	}
}

// poll is pollView for a reader that cannot promise when it is done with a
// message: it copies the message into a pooled buffer and finishes it at
// once. It returns the decoded header, the items (views into the pooled
// buffer), the buffer itself, and true; or false if no complete message is
// available. The caller owns one reference on the returned buffer: it must
// Release after distributing the items (retaining per item it hands on). A
// client's response ring is read this way, because a Response's Release is
// optional and a view held past it would stall the ring.
func (c *ringConsumer) poll() (header, []decodedItem, *mem.Buf, bool) {
	for {
		off, n, end, ok := c.claim()
		if !ok {
			return header{}, nil, nil, false
		}
		mbuf := mem.Get(n)
		buf := mbuf.Data()
		copy(buf, c.mr.View(off, n))
		c.finish(end)
		h, items, err := decodeMessageInto(buf, c.items)
		c.items = items[:0]
		if err == nil {
			return h, items, mbuf, true
		}
		mbuf.Release() // corrupt despite matching canaries: dropped, as in pollView
	}
}

// idle reports that nothing has been written to the ring since a poll last
// found it empty, so a poll now would find nothing either. It needs no poll
// role: a pump checks it before taking one, and a write that lands just
// after it is the next round's to find.
func (c *ringConsumer) idle() bool { return c.mr.Version() == c.emptyAt.Load() }

// claim finds the complete message at the read position, enters it in the
// window unfinished and moves the read position past it, returning its ring
// offset, its length and its end position; false if no complete message is
// there. The version is read before the ring is looked at, so a write the
// look misses leaves the region at a later version than the one remembered;
// finish's zeroing moves it too, which only costs the next poll a look.
func (c *ringConsumer) claim() (off, n int, end uint64, ok bool) {
	ver := c.mr.Version()
	if ver == c.emptyAt.Load() {
		return 0, 0, 0, false
	}
	off, n, ok = c.frame()
	if !ok {
		c.emptyAt.Store(ver)
		return 0, 0, 0, false
	}
	c.next += uint64(n)
	c.mu.Lock()
	c.window = append(c.window, ringSpan{end: c.next})
	c.mu.Unlock()
	return off, n, c.next, true
}

// frame examines the read position for one complete message and returns its
// ring offset and length. A wrap marker there is stepped over — it enters the
// window finished — and the message looked for at offset zero. The three
// locked loads (length, leading and trailing canary) are the whole
// completeness check; the last of them, observing the trailing canary, orders
// every read of the message's bytes after the chunks that placed them, which
// is what makes a view of the message safe to read.
func (c *ringConsumer) frame() (off, n int, ok bool) {
	if c.lapped() {
		return 0, 0, false
	}
	off = int(c.next % uint64(c.size))
	totalLen := uint32(c.mr.Load64(off))
	if totalLen == 0 {
		return 0, 0, false
	}
	if totalLen == wrapMarker {
		c.next += uint64(c.size - off)
		c.mu.Lock()
		c.window = append(c.window, ringSpan{end: c.next, done: true})
		c.settleLocked()
		c.mu.Unlock()
		if c.lapped() {
			return 0, 0, false
		}
		off = 0
		totalLen = uint32(c.mr.Load64(0))
		if totalLen == 0 || totalLen == wrapMarker {
			return 0, 0, false
		}
	}
	if int(totalLen) < headerBytes+trailerBytes || int(totalLen) > c.size-off {
		// Torn or corrupt length; wait for more bytes. A length that can
		// never be valid will be caught by decode once canaries match.
		return 0, 0, false
	}
	canary := c.mr.Load64(off + 8)
	if canary == 0 {
		return 0, 0, false
	}
	if c.mr.Load64(off+int(totalLen)-trailerBytes) != canary {
		return 0, 0, false // incomplete: trailing canary not placed yet
	}
	return off, int(totalLen), true
}

// lapped reports that the read position is a whole ring ahead of head: every
// byte of the ring is read and not yet given back, so the producer cannot
// have written at the read position, and what is there is a message still
// held from the lap before. Below a lap, the read position's bytes from the
// lap before lie behind head, zeroed before head moved over them.
func (c *ringConsumer) lapped() bool { return c.next-c.head.Load() >= uint64(c.size) }

// finish gives back the ring space of the message that ends at end, read by
// claim: it marks the message finished and, once every message before it is
// finished too, zeroes the finished prefix of the window, moves head over it
// and publishes. Any goroutine may call it, in any order across messages,
// but once per message and only after the last read of its views.
func (c *ringConsumer) finish(end uint64) {
	c.mu.Lock()
	for i := range c.window {
		if c.window[i].end == end {
			c.window[i].done = true
			break
		}
	}
	c.settleLocked()
	c.mu.Unlock()
}

// settleLocked zeroes the window's finished prefix, moves head over it and
// publishes. Every byte of a slot is zeroed, not only its framing words: the
// bytes left behind are user payload, which can hold a well-formed frame with
// its own matching canary pair, and only zeroes make a position nobody has
// written since read as "no message". Caller holds mu.
func (c *ringConsumer) settleLocked() {
	head := c.head.Load()
	k := 0
	for ; k < len(c.window) && c.window[k].done; k++ {
		end := c.window[k].end
		c.zeroRange(int(head%uint64(c.size)), int(end-head))
		head = end
	}
	if k == 0 {
		return
	}
	c.window = c.window[:copy(c.window, c.window[k:])]
	c.head.Store(head)
	c.publish()
}

// zeroRange clears [off, off+n) of the ring so the slot is reusable.
func (c *ringConsumer) zeroRange(off, n int) {
	for n > 0 {
		k := n
		if k > len(zeroPage) {
			k = len(zeroPage)
		}
		c.mr.WriteAt(zeroPage[:k], off) //nolint:errcheck // in range by construction
		off += k
		n -= k
	}
}

// publish stores the consumed head into the control region.
func (c *ringConsumer) publish() {
	c.publishMR.Store64(c.publishOff, c.head.Load())
}
