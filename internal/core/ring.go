package core

import (
	"encoding/binary"
	"sync/atomic"

	"flock/internal/mem"
	"flock/internal/rnic"
)

// zeroPage is a shared read-only slab of zeros used to clear consumed ring
// space and reset regions during QP recycle. One page for the whole
// package: the writers only ever read from it.
var zeroPage [4096]byte

// ringProducer is the sender's view of one ring buffer (§4): a local
// staging region mirroring the receiver's ring, a monotonic tail, and a
// cached copy of the receiver's consumed Head. The producer reserves
// space, lets threads stage their payloads, and the leader ships the span
// with a single RDMA write to the same offset in the remote ring.
type ringProducer struct {
	staging *rnic.MemRegion // local mirror of the remote ring
	base    int             // ring base offset inside staging and remote MR
	size    int
	rkey    uint32 // remote ring MR
	tail    uint64 // monotonic bytes produced; current-leader-owned
	msgSeq  uint64 // messages sealed, the selective-signalling counter; owned like tail

	// cached is the monotonic consumed head as last learned (the
	// "sender's copy of Head", §4.1). Whoever polls the response ring advances
	// it from piggybacked headers concurrently with the leader reading it,
	// hence atomic.
	cached atomic.Uint64
}

// free reports how many ring bytes are available given the cached head.
func (p *ringProducer) free() int {
	return p.size - int(p.tail-p.cached.Load())
}

// reset returns the producer to the fresh-ring state after a QP recycle:
// nothing produced, nothing known consumed. The caller must have excluded
// every concurrent producer and cache-updater first.
func (p *ringProducer) reset() {
	p.tail = 0
	p.msgSeq = 0
	p.cached.Store(0)
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
	markerLen int // bytes the marker occupies on the ring (skipped region)
}

// reserve allocates space for a message of msgLen bytes, returning false
// if the ring lacks room (the caller refreshes the cached head and
// retries). If the message would straddle the ring end, an 8-byte wrap
// marker is staged at the current tail and the message starts at offset 0.
func (p *ringProducer) reserve(msgLen int) (reservation, bool) {
	r := reservation{msgLen: msgLen, markerOff: -1}
	off := int(p.tail) % p.size
	need := msgLen
	rem := 0
	if off+msgLen > p.size {
		rem = p.size - off
		need += rem
	}
	if need > p.free() {
		return r, false
	}
	if rem > 0 {
		// Stage the wrap marker; it is transmitted by the caller ahead of
		// the message so the receiver skips to offset zero.
		var marker [8]byte
		binary.LittleEndian.PutUint32(marker[0:], wrapMarker)
		p.staging.WriteAt(marker[:], p.base+off) //nolint:errcheck // in range by construction
		r.markerOff = off
		r.markerLen = rem
		p.tail += uint64(rem)
		off = 0
	}
	r.msgOff = off
	p.tail += uint64(msgLen)
	return r, true
}

// ringConsumer is the receiver's view of one ring buffer: it polls the
// Head position for complete messages, validates canaries, zeroes consumed
// space, and publishes its consumed head for the producer (piggybacked on
// responses and readable via one-sided RDMA when the producer is starved).
type ringConsumer struct {
	mr   *rnic.MemRegion
	base int
	size int

	// head is the monotonic consumed counter. Only the ring's one poller
	// advances it — the holder of the QP's poll role (on a server without a
	// worker pool, the node's loop) — but response-flush paths on other
	// goroutines read it for piggybacking, hence atomic.
	head atomic.Uint64

	publishMR  *rnic.MemRegion // control region carrying the consumed head
	publishOff int

	items []decodedItem // reusable decode scratch, overwritten per poll

	// emptyAt is the region version (rnic.MemRegion.Version) the last poll
	// read before it found no complete message at head, or noVersion. While
	// the region still has that version nothing has been written since, so
	// a poll is that one comparison. Only the polling goroutine writes it;
	// it is atomic so that idle can read it without the poll role.
	emptyAt atomic.Uint64
}

// noVersion is an emptyAt no region reaches: the next poll looks.
const noVersion = ^uint64(0)

// newRingConsumer builds a consumer over mr[base : base+size].
func newRingConsumer(mr *rnic.MemRegion, base, size int, publishMR *rnic.MemRegion, publishOff int) *ringConsumer {
	c := &ringConsumer{
		mr:         mr,
		base:       base,
		size:       size,
		publishMR:  publishMR,
		publishOff: publishOff,
	}
	c.emptyAt.Store(noVersion)
	return c
}

// consumed returns the monotonic consumed-head counter.
func (c *ringConsumer) consumed() uint64 { return c.head.Load() }

// reset rewinds the consumer to offset zero and republishes, matching a
// recycled producer that restarts at tail zero. The caller must have
// excluded every poller first: on a client, broken is set and the QP's poll
// role is free, so whoever takes the role next leaves without polling; on a
// server, broken is set and the pumps' inuse count has drained, and the poll
// role is only ever taken inside that count.
func (c *ringConsumer) reset() {
	c.head.Store(0)
	c.emptyAt.Store(noVersion) // what was empty was the old head position
	c.publish()
}

// poll checks the head position for one complete message. It returns the
// decoded header, the items (views into a pooled message buffer), the
// pooled buffer itself, and true; or false if no complete message is
// available. The caller owns one reference on the returned buffer: it must
// Release after distributing the items (retaining per item it hands on).
// The item slice is consumer-owned scratch, overwritten by the next poll.
// Incomplete messages — header visible but trailing canary not yet placed —
// are left untouched for the next poll, exactly the §4.1 protocol.
func (c *ringConsumer) poll() (header, []decodedItem, *mem.Buf, bool) {
	// The version is read before the ring is looked at, so a write the look
	// misses leaves the region at a later version than the one remembered.
	// poll's own writes (zeroing, a consumed wrap marker) move it too, which
	// only costs the next poll a look.
	ver := c.mr.Version()
	if ver == c.emptyAt.Load() {
		return header{}, nil, nil, false
	}
	h, items, mbuf, ok := c.look()
	if !ok {
		c.emptyAt.Store(ver)
	}
	return h, items, mbuf, ok
}

// idle reports that nothing has been written to the ring since a poll last
// found it empty, so a poll now would find nothing either. It needs no poll
// role: a pump checks it before taking one, and a write that lands just
// after it is the next round's to find.
func (c *ringConsumer) idle() bool { return c.mr.Version() == c.emptyAt.Load() }

// look examines the head position for one complete message; see poll.
func (c *ringConsumer) look() (header, []decodedItem, *mem.Buf, bool) {
	off := int(c.head.Load()) % c.size
	word := c.mr.Load64(c.base + off)
	totalLen := uint32(word)
	if totalLen == 0 {
		return header{}, nil, nil, false
	}
	if totalLen == wrapMarker {
		c.zeroRange(off, 8)
		c.head.Add(uint64(c.size - off))
		c.publish()
		off = 0
		word = c.mr.Load64(c.base + off)
		totalLen = uint32(word)
		if totalLen == 0 || totalLen == wrapMarker {
			return header{}, nil, nil, false
		}
	}
	if int(totalLen) < headerBytes+trailerBytes || int(totalLen) > c.size-off {
		// Torn or corrupt length; wait for more bytes. A length that can
		// never be valid will be caught by decode once canaries match.
		return header{}, nil, nil, false
	}
	canary := c.mr.Load64(c.base + off + 8)
	if canary == 0 {
		return header{}, nil, nil, false
	}
	tail := c.mr.Load64(c.base + off + int(totalLen) - trailerBytes)
	if tail != canary {
		return header{}, nil, nil, false // incomplete: trailing canary not placed yet
	}
	mbuf := mem.Get(int(totalLen))
	buf := mbuf.Data()
	c.mr.ReadAt(buf, c.base+off) //nolint:errcheck // in range by construction
	h, items, err := decodeMessageInto(buf, c.items)
	c.items = items[:0]
	if err != nil {
		// Structurally corrupt despite matching canaries: drop the
		// message to keep the ring live. This cannot happen with a
		// well-behaved producer.
		mbuf.Release()
		c.zeroRange(off, int(totalLen))
		c.head.Add(uint64(totalLen))
		c.publish()
		return header{}, nil, nil, false
	}
	c.zeroRange(off, int(totalLen))
	c.head.Add(uint64(totalLen))
	c.publish()
	return h, items, mbuf, true
}

// zeroRange clears [off, off+n) of the ring so the slot is reusable.
func (c *ringConsumer) zeroRange(off, n int) {
	for n > 0 {
		k := n
		if k > len(zeroPage) {
			k = len(zeroPage)
		}
		c.mr.WriteAt(zeroPage[:k], c.base+off) //nolint:errcheck // in range by construction
		off += k
		n -= k
	}
}

// publish stores the consumed head into the control region.
func (c *ringConsumer) publish() {
	if c.publishMR != nil {
		c.publishMR.Store64(c.publishOff, c.head.Load())
	}
}
