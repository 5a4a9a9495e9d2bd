package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"flock/internal/fabric"
	"flock/internal/rnic"
	"flock/internal/stats"
)

// ringPair wires a producer and consumer over two memory regions on one
// test device; shuttle() simulates the RDMA write delivery.
type ringPair struct {
	dev  *rnic.Device
	prod *ringProducer
	cons *ringConsumer
	dst  *rnic.MemRegion
}

func newRingPair(t *testing.T, size int) *ringPair {
	t.Helper()
	fab := fabric.New(fabric.Config{})
	dev, err := rnic.NewDevice(fab, rnic.Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Close)
	prod, err := newRingProducer(dev, size, 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dev.RegisterMR(size, rnic.PermRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := dev.RegisterMR(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &ringPair{
		dev:  dev,
		prod: prod,
		cons: newRingConsumer(dst, ctrl, 0),
		dst:  dst,
	}
}

// shuttle copies n bytes at off from staging to the destination ring,
// standing in for the RDMA write.
func (rp *ringPair) shuttle(off, n int) {
	buf := make([]byte, n)
	rp.prod.staging.ReadAt(buf, off) //nolint:errcheck
	rp.dst.WriteAt(buf, off)         //nolint:errcheck
}

// produce stages and delivers one message with the given payloads.
func (rp *ringPair) produce(t *testing.T, canary uint64, payloads ...[]byte) {
	t.Helper()
	items := make([]itemMeta, len(payloads))
	for i := range payloads {
		items[i] = itemMeta{threadID: uint32(i), seqID: uint64(i)}
	}
	msg := buildMessage(items, payloads, canary, 0)
	res, ok := rp.prod.reserve(len(msg))
	if !ok {
		t.Fatal("reserve failed unexpectedly")
	}
	rp.prod.staging.WriteAt(msg, res.msgOff) //nolint:errcheck
	if res.markerOff >= 0 {
		rp.shuttle(res.markerOff, 8)
	}
	rp.shuttle(res.msgOff, len(msg))
}

func TestRingProduceConsume(t *testing.T) {
	rp := newRingPair(t, 4096)
	rp.produce(t, 7, []byte("hello"), []byte("world!"))
	h, items, mbuf, ok := rp.cons.poll()
	if !ok {
		t.Fatal("message not consumed")
	}
	defer mbuf.Release()
	if h.count != 2 || string(items[0].data) != "hello" || string(items[1].data) != "world!" {
		t.Fatalf("decoded: %+v", items)
	}
	if _, _, _, ok := rp.cons.poll(); ok {
		t.Fatal("phantom second message")
	}
	// Consumed head advanced and was published.
	if rp.cons.consumed() == 0 {
		t.Fatal("consumed head not advanced")
	}
	if rp.cons.publishMR.Load64(0) != rp.cons.consumed() {
		t.Fatal("consumed head not published")
	}
}

func TestRingWrapMarker(t *testing.T) {
	const size = 512
	rp := newRingPair(t, size)
	// Fill most of the ring, consume it, then produce a message that
	// must wrap.
	big := make([]byte, 300)
	for i := range big {
		big[i] = 0x55
	}
	rp.produce(t, 3, big)
	if _, _, b, ok := rp.cons.poll(); !ok {
		t.Fatal("first message lost")
	} else {
		b.Release()
	}
	rp.prod.updateCached(rp.cons.consumed())

	// Tail is now ~364; a 200-byte payload message (~256 total) wraps.
	rp.produce(t, 4, make([]byte, 200))
	h, items, mbuf, ok := rp.cons.poll()
	if !ok {
		t.Fatal("wrapped message not consumed")
	}
	defer mbuf.Release()
	if h.count != 1 || len(items[0].data) != 200 {
		t.Fatalf("wrapped decode: count=%d", h.count)
	}
	// Producer and consumer agree on position after the wrap.
	if rp.prod.tail != rp.cons.consumed() {
		t.Fatalf("tail %d != consumed %d", rp.prod.tail, rp.cons.consumed())
	}
}

func TestRingBackpressure(t *testing.T) {
	const size = 256
	rp := newRingPair(t, size)
	msg := buildMessage([]itemMeta{{}}, [][]byte{make([]byte, 100)}, 5, 0)
	res, ok := rp.prod.reserve(len(msg))
	if !ok {
		t.Fatal("first reserve failed")
	}
	rp.prod.staging.WriteAt(msg, res.msgOff) //nolint:errcheck
	rp.shuttle(res.msgOff, len(msg))
	// Second message does not fit until the consumer catches up.
	if _, ok := rp.prod.reserve(len(msg)); ok {
		t.Fatal("reserve succeeded with a full ring")
	}
	if _, _, b, ok := rp.cons.poll(); !ok {
		t.Fatal("consume failed")
	} else {
		b.Release()
	}
	rp.prod.updateCached(rp.cons.consumed())
	if _, ok := rp.prod.reserve(len(msg)); !ok {
		t.Fatal("reserve failed after head refresh")
	}
}

func TestRingIncompleteMessageNotConsumed(t *testing.T) {
	rp := newRingPair(t, 4096)
	msg := buildMessage([]itemMeta{{}}, [][]byte{[]byte("partial")}, 9, 0)
	res, _ := rp.prod.reserve(len(msg))
	rp.prod.staging.WriteAt(msg, res.msgOff) //nolint:errcheck
	// Deliver everything except the trailing canary: the poller must not
	// consume the torn message.
	rp.shuttle(res.msgOff, len(msg)-trailerBytes)
	if _, _, _, ok := rp.cons.poll(); ok {
		t.Fatal("torn message consumed")
	}
	// Now deliver the tail; consumption succeeds.
	rp.shuttle(res.msgOff+len(msg)-trailerBytes, trailerBytes)
	if _, _, b, ok := rp.cons.poll(); !ok {
		t.Fatal("completed message not consumed")
	} else {
		b.Release()
	}
}

// TestRingPollSeesWritesBetweenPolls pins the contract of the version gate:
// an empty poll may be answered from the remembered region version, but a
// message — or the rest of one — written between two polls is seen by the
// second, and reset() wipes the ring and looks at offset zero again.
func TestRingPollSeesWritesBetweenPolls(t *testing.T) {
	rp := newRingPair(t, 4096)
	mustPoll := func(what string) {
		t.Helper()
		_, _, b, ok := rp.cons.poll()
		if !ok {
			t.Fatalf("%s: message not seen", what)
		}
		b.Release()
	}
	mustBeEmpty := func(what string) {
		t.Helper()
		if _, _, _, ok := rp.cons.poll(); ok {
			t.Fatalf("%s: phantom message", what)
		}
	}

	// Two empty polls: the second is answered by the gate.
	mustBeEmpty("fresh ring")
	mustBeEmpty("fresh ring, gated")
	if rp.cons.emptyAt.Load() != rp.dst.Version() {
		t.Fatal("an empty poll did not arm the version gate")
	}
	rp.produce(t, 11, []byte("after two empty polls"))
	mustPoll("whole message between polls")

	// A torn message: the gate arms on the incomplete look and must open
	// again when the trailing canary lands.
	msg := buildMessage([]itemMeta{{}}, [][]byte{[]byte("torn")}, 13, 0)
	res, _ := rp.prod.reserve(len(msg))
	rp.prod.staging.WriteAt(msg, res.msgOff) //nolint:errcheck
	rp.shuttle(res.msgOff, len(msg)-trailerBytes)
	mustBeEmpty("torn message")
	mustBeEmpty("torn message, gated")
	rp.shuttle(res.msgOff+len(msg)-trailerBytes, trailerBytes)
	mustPoll("tail of a torn message between polls")

	// A recycle zeroes the ring as it rewinds the consumer: what the old
	// life left there — here a message at offset zero, which the consumer,
	// gated at its old head, never looked at — is gone. The rewound producer
	// writes again only after the reset, at offset zero, where the next poll
	// looks.
	if rp.cons.consumed() == 0 {
		t.Fatal("test needs a head away from zero")
	}
	rp.prod.reset()
	rp.produce(t, 17, []byte("left at zero by the old life"))
	mustBeEmpty("old head position")
	rp.cons.reset()
	mustBeEmpty("a ring the reset wiped")
	rp.prod.reset()
	rp.produce(t, 19, []byte("at zero after the reset"))
	mustPoll("message at zero after the reset")
	mustBeEmpty("drained")
	rp.produce(t, 23, []byte("and the one after"))
	mustPoll("message after a reset and an empty poll")
}

func TestRingManyLaps(t *testing.T) {
	const size = 1024
	rp := newRingPair(t, size)
	payload := make([]byte, 64)
	for lap := 0; lap < 200; lap++ {
		payload[0] = byte(lap)
		rp.produce(t, uint64(lap)+1, payload)
		_, items, mbuf, ok := rp.cons.poll()
		if !ok {
			t.Fatalf("lap %d: message lost", lap)
		}
		if items[0].data[0] != byte(lap) {
			t.Fatalf("lap %d: wrong payload %d", lap, items[0].data[0])
		}
		mbuf.Release()
		rp.prod.updateCached(rp.cons.consumed())
	}
}

func TestProducerCachedMonotonic(t *testing.T) {
	rp := newRingPair(t, 1024)
	rp.prod.updateCached(100)
	rp.prod.updateCached(50) // stale piggyback must not regress
	if got := rp.prod.cached.Load(); got != 100 {
		t.Fatalf("cached = %d", got)
	}
	rp.prod.updateCached(200)
	if got := rp.prod.cached.Load(); got != 200 {
		t.Fatalf("cached = %d", got)
	}
}

func TestRingModelBasedProperty(t *testing.T) {
	// Model-based check: random sequences of variable-size messages with
	// interleaved consumption must deliver every message intact and in
	// order, across many wraps. The reference model is a simple FIFO of
	// payload hashes.
	rng := stats.NewRNG(777)
	const size = 2048
	rp := newRingPair(t, size)
	type sentMsg struct{ payload []byte }
	var fifo []sentMsg
	produced, consumed := 0, 0
	for step := 0; step < 3000; step++ {
		if rng.Uint64n(2) == 0 {
			// Produce, if space allows.
			payload := make([]byte, rng.Uint64n(300)+1)
			for i := range payload {
				payload[i] = byte(rng.Uint64())
			}
			msg := buildMessage([]itemMeta{{seqID: uint64(produced)}}, [][]byte{payload}, rng.Uint64()|1, 0)
			res, ok := rp.prod.reserve(len(msg))
			if !ok {
				continue // ring full; consumer must catch up
			}
			if err := rp.prod.staging.WriteAt(msg, res.msgOff); err != nil {
				t.Fatal(err)
			}
			if res.markerOff >= 0 {
				rp.shuttle(res.markerOff, 8)
			}
			rp.shuttle(res.msgOff, len(msg))
			fifo = append(fifo, sentMsg{payload: payload})
			produced++
		} else {
			h, items, mbuf, ok := rp.cons.poll()
			if !ok {
				continue
			}
			if len(fifo) == 0 {
				t.Fatal("consumed a message that was never produced")
			}
			want := fifo[0]
			fifo = fifo[1:]
			if h.count != 1 || !bytes.Equal(items[0].data, want.payload) {
				t.Fatalf("step %d: message %d corrupted or reordered", step, consumed)
			}
			if items[0].meta.seqID != uint64(consumed) {
				t.Fatalf("step %d: seq %d, want %d", step, items[0].meta.seqID, consumed)
			}
			mbuf.Release()
			consumed++
			rp.prod.updateCached(rp.cons.consumed())
		}
	}
	// Drain the tail.
	for len(fifo) > 0 {
		_, items, mbuf, ok := rp.cons.poll()
		if !ok {
			t.Fatalf("ring wedged with %d messages outstanding", len(fifo))
		}
		if !bytes.Equal(items[0].data, fifo[0].payload) {
			t.Fatal("tail message corrupted")
		}
		mbuf.Release()
		fifo = fifo[1:]
		consumed++
		rp.prod.updateCached(rp.cons.consumed())
	}
	if consumed != produced {
		t.Fatalf("consumed %d != produced %d", consumed, produced)
	}
	t.Logf("model-based: %d messages across ~%d ring laps", produced, int(rp.prod.tail)/size)
}

// offer stages and delivers one message of seq carrying payload, unless the
// producer has no room for it.
func (rp *ringPair) offer(seq uint64, payload []byte) bool {
	msg := buildMessage([]itemMeta{{seqID: seq}}, [][]byte{payload}, seq|1, 0)
	res, ok := rp.prod.reserve(len(msg))
	if !ok {
		return false
	}
	rp.prod.staging.WriteAt(msg, res.msgOff) //nolint:errcheck
	if res.markerOff >= 0 {
		rp.shuttle(res.markerOff, 8)
	}
	rp.shuttle(res.msgOff, len(msg))
	return true
}

// heldView is a message read by pollView and not yet finished: its payload
// view and its span on the ring.
type heldView struct {
	seq        uint64
	data       []byte
	start, end uint64
}

// viewPattern is the payload of message seq: n bytes a held view must still
// read, byte for byte, until it is finished.
func viewPattern(seq uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seq*131 + uint64(i)*7 + 1)
	}
	return b
}

// TestRingViewsFinishOutOfOrder holds views of three messages and finishes
// them out of order: head moves only over the finished prefix, a producer
// that wants the space of a held view is refused until that view is
// finished, and every held view reads its bytes unchanged meanwhile, a wrap
// and a delivery into the freed space included.
func TestRingViewsFinishOutOfOrder(t *testing.T) {
	const size = 1024
	rp := newRingPair(t, size)
	produce := func(seq uint64) bool { return rp.offer(seq, viewPattern(seq, 180)) }
	take := func(seq uint64) heldView {
		t.Helper()
		h, items, end, ok := rp.cons.pollView()
		if !ok {
			t.Fatalf("message %d not seen", seq)
		}
		if items[0].meta.seqID != seq {
			t.Fatalf("read message %d, want %d", items[0].meta.seqID, seq)
		}
		return heldView{seq: seq, data: items[0].data, start: end - uint64(h.totalLen), end: end}
	}
	intact := func(hs ...heldView) {
		t.Helper()
		for _, h := range hs {
			if !bytes.Equal(h.data, viewPattern(h.seq, 180)) {
				t.Fatalf("the view of message %d changed before its finish", h.seq)
			}
		}
	}
	head := func(want uint64) {
		t.Helper()
		if got := rp.cons.consumed(); got != want {
			t.Fatalf("head %d, want %d", got, want)
		}
		if got := rp.cons.publishMR.Load64(0); got != want {
			t.Fatalf("published head %d, want %d", got, want)
		}
	}

	for seq := uint64(0); seq < 4; seq++ {
		if !produce(seq) {
			t.Fatalf("message %d did not fit an empty ring", seq)
		}
	}
	a, b, c := take(0), take(1), take(2)
	rp.cons.finish(b.end)
	head(0) // b is finished, but a before it is not
	intact(a, b, c)
	rp.prod.updateCached(rp.cons.consumed())
	if produce(4) {
		t.Fatal("the producer was handed the space of a held view")
	}

	rp.cons.finish(a.end)
	head(b.end) // over a and b, not c
	intact(c)
	rp.prod.updateCached(rp.cons.consumed())
	if !produce(4) { // wraps into the space a and b gave back
		t.Fatal("the producer was refused space given back")
	}
	intact(c)
	d := take(3)
	e := take(4)
	if e.start%size != 0 {
		t.Fatalf("message 4 starts at ring offset %d, want a wrap to 0", e.start%size)
	}
	rp.cons.finish(e.end)
	rp.cons.finish(c.end)
	head(c.end) // d still held: the wrap marker and e wait behind it
	intact(d, e)
	rp.cons.finish(d.end)
	head(e.end)
	if rp.prod.tail != e.end {
		t.Fatalf("producer tail %d, consumer head %d", rp.prod.tail, e.end)
	}
	// Everything given back was zeroed: a position nobody wrote since reads
	// as no message.
	if _, _, _, ok := rp.cons.pollView(); ok {
		t.Fatal("phantom message after the last finish")
	}
	for off := 0; off < size; off += 8 {
		if w := rp.dst.Load64(off); w != 0 {
			t.Fatalf("ring word at %d is %#x after every message finished", off, w)
		}
	}
}

// TestRingFullOfHeldViews fills the ring exactly with messages whose views
// are all held: the read position is then a whole lap ahead of head, on the
// first held message, and a poll must read nothing there until that message
// is finished and the producer writes the space again.
func TestRingFullOfHeldViews(t *testing.T) {
	const size = 1024
	rp := newRingPair(t, size)
	// 72 bytes of framing and item metadata: four of these fill the ring.
	produce := func(seq uint64) bool { return rp.offer(seq, viewPattern(seq, size/4-72)) }
	var ends []uint64
	for seq := uint64(0); seq < 4; seq++ {
		if !produce(seq) {
			t.Fatalf("message %d did not fit", seq)
		}
		_, _, end, ok := rp.cons.pollView()
		if !ok {
			t.Fatalf("message %d not seen", seq)
		}
		ends = append(ends, end)
	}
	if rp.prod.tail != size {
		t.Fatalf("producer tail %d, want the ring exactly full", rp.prod.tail)
	}
	if _, items, _, ok := rp.cons.pollView(); ok {
		t.Fatalf("read message %d again from a ring full of held views", items[0].meta.seqID)
	}
	rp.cons.finish(ends[0])
	if _, _, _, ok := rp.cons.pollView(); ok {
		t.Fatal("read a message from space given back and not written since")
	}
	rp.prod.updateCached(rp.cons.consumed())
	if !produce(4) {
		t.Fatal("the producer was refused space given back")
	}
	_, items, end, ok := rp.cons.pollView()
	if !ok || items[0].meta.seqID != 4 {
		t.Fatal("the message written into the space given back was not read")
	}
	for _, e := range append(ends[1:], end) {
		rp.cons.finish(e)
	}
	if got := rp.cons.consumed(); got != rp.prod.tail {
		t.Fatalf("head %d after every finish, producer tail %d", got, rp.prod.tail)
	}
}

// TestRingHeldViewsBackPressureProducer runs a producer that keeps filling a
// small ring against a poller that hands each message's views to one of
// three holders, which hold them a random while and finish them out of
// order. Every holder checks, before its finish, that its view still reads
// the bytes produced and that head has not moved past its message; the
// producer checks that the span it was handed reads zero — no held view is
// there. The producer must have been back-pressured, and some messages
// finished out of order, or the test proves nothing.
func TestRingHeldViewsBackPressureProducer(t *testing.T) {
	const size, msgs, holders = 4096, 2000, 3
	rp := newRingPair(t, size)
	var refused atomic.Int64
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		rng := stats.NewRNG(21)
		for seq := uint64(0); seq < msgs; seq++ {
			msg := buildMessage([]itemMeta{{seqID: seq}}, [][]byte{viewPattern(seq, int(rng.Uint64n(400))+1)}, rng.Uint64()|1, 0)
			res, ok := rp.prod.reserve(len(msg))
			for ; !ok; res, ok = rp.prod.reserve(len(msg)) {
				refused.Add(1)
				rp.prod.updateCached(rp.cons.publishMR.Load64(0))
				runtime.Gosched()
			}
			span := make([]byte, len(msg))
			rp.dst.ReadAt(span, res.msgOff) //nolint:errcheck
			if !bytes.Equal(span, make([]byte, len(msg))) {
				t.Errorf("message %d was handed ring space that is not zero", seq)
				return
			}
			rp.prod.staging.WriteAt(msg, res.msgOff) //nolint:errcheck
			if res.markerOff >= 0 {
				rp.shuttle(res.markerOff, 8)
			}
			// Ascending chunks, as the NIC places a write.
			for off := 0; off < len(msg); off += 64 {
				rp.shuttle(res.msgOff+off, min(64, len(msg)-off))
			}
		}
	}()

	work := make(chan heldView, 64) // room for every message the ring can hold
	var wg sync.WaitGroup
	var maxEnd atomic.Uint64
	var outOfOrder atomic.Int64
	for i := range holders {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(i) + 100)
			for h := range work {
				for range rng.Uint64n(20) {
					runtime.Gosched()
				}
				if got := rp.cons.consumed(); got > h.start {
					t.Errorf("head %d moved past message %d (at %d) before its finish", got, h.seq, h.start)
				}
				if !bytes.Equal(h.data, viewPattern(h.seq, len(h.data))) {
					t.Errorf("the view of message %d changed before its finish", h.seq)
				}
				if m := maxEnd.Load(); h.end < m {
					outOfOrder.Add(1)
				}
				for m := maxEnd.Load(); h.end > m && !maxEnd.CompareAndSwap(m, h.end); m = maxEnd.Load() {
				}
				rp.cons.finish(h.end)
			}
		}(i)
	}
	for seq := uint64(0); seq < msgs; {
		hd, items, end, ok := rp.cons.pollView()
		if !ok {
			runtime.Gosched()
			continue
		}
		if got := items[0].meta.seqID; got != seq {
			t.Fatalf("read message %d, want %d", got, seq)
		}
		work <- heldView{seq: seq, data: items[0].data, start: end - uint64(hd.totalLen), end: end}
		seq++
	}
	close(work)
	wg.Wait()
	<-produced
	if got := rp.cons.consumed(); got != rp.prod.tail {
		t.Fatalf("head %d after every finish, producer tail %d", got, rp.prod.tail)
	}
	if refused.Load() == 0 || outOfOrder.Load() == 0 {
		t.Fatalf("refused reservations %d, out-of-order finishes %d: both must happen", refused.Load(), outOfOrder.Load())
	}
	t.Logf("%d messages, %d refused reservations, %d out-of-order finishes", msgs, refused.Load(), outOfOrder.Load())
}

// TestEchoReadsRequestsInPlace runs echoes of every size over one shared QP
// with a small request ring, inline (Workers 0) and behind a pool (Workers
// 2, where handlers of different messages run at once and finish out of
// order). Each handler checks that its request is a view over the QP's
// request ring, in a message of the consumer's window that is not finished,
// and that it reads the bytes sent — again after yielding — and echoes the
// view itself, so the reply must be flushed before the message is given
// back.
func TestEchoReadsRequestsInPlace(t *testing.T) {
	const checkID, threads, calls = 7, 4, 300
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := Options{MaxBatch: 4, QPsPerConn: 1, test: testKnobs{ringBytes: 8192, maxPayload: 512}}
			srvOpts := opts
			srvOpts.Workers = workers
			tc := newTestCluster(t, 1, srvOpts, opts)
			var overlapped atomic.Int64
			tc.server.RegisterHandler(checkID, func(req []byte) []byte {
				seq := binary.LittleEndian.Uint64(req)
				want := echoPattern(seq, len(req))
				sqp, off := locateRequest(tc.server, req)
				if sqp == nil {
					t.Errorf("request %d is not a view over a request ring", seq)
					return req
				}
				c := sqp.reqCons
				c.mu.Lock()
				held, unfinished := false, 0
				for pos, i := c.head.Load(), 0; i < len(c.window); pos, i = c.window[i].end, i+1 {
					if c.window[i].done {
						continue
					}
					unfinished++
					if start := int(pos % uint64(c.size)); off >= start && off < start+int(c.window[i].end-pos) {
						held = true
					}
				}
				c.mu.Unlock()
				if !held {
					t.Errorf("request %d (ring offset %d) is not in an unfinished message of the window", seq, off)
				}
				if unfinished > 1 {
					overlapped.Add(1)
				}
				for i := range 3 {
					if !bytes.Equal(req, want) {
						t.Errorf("request %d changed under its handler (look %d)", seq, i)
						break
					}
					runtime.Gosched()
				}
				return req
			})
			conn, err := tc.clients[0].Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := range threads {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					th := conn.RegisterThread()
					rng := stats.NewRNG(uint64(i) + 1)
					for n := range calls {
						seq := uint64(i)<<32 | uint64(n)
						payload := echoPattern(seq, int(rng.Uint64n(505))+8)
						r, err := th.CallWithDeadline(checkID, payload, 10*time.Second)
						if err != nil {
							t.Errorf("call %d: %v", seq, err)
							return
						}
						if !bytes.Equal(r.Data, payload) {
							t.Errorf("call %d echoed %d bytes that differ from the %d sent", seq, len(r.Data), len(payload))
						}
						r.Release()
					}
				}(i)
			}
			wg.Wait()
			t.Logf("%d handlers ran while another message of their ring was unfinished", overlapped.Load())
			if workers > 0 && overlapped.Load() == 0 {
				t.Fatal("no two messages of the ring were ever held at once: nothing finished out of order")
			}
		})
	}
}

// echoPattern is viewPattern with seq in its first 8 bytes, so a handler can
// tell what its request must read.
func echoPattern(seq uint64, n int) []byte {
	b := viewPattern(seq, n)
	binary.LittleEndian.PutUint64(b, seq)
	return b
}

// locateRequest finds the server QP whose request ring req views and req's
// offset in it; nil when req is not a view over any request ring.
func locateRequest(n *Node, req []byte) (*serverQP, int) {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(req)))
	for _, sc := range n.snapshotSconns() {
		for _, sqp := range sc.qps {
			ring := sqp.reqCons.mr.View(0, sqp.reqCons.mr.Len())
			base := uintptr(unsafe.Pointer(unsafe.SliceData(ring)))
			if p >= base && p < base+uintptr(len(ring)) {
				return sqp, int(p - base)
			}
		}
	}
	return nil, 0
}

// TestStarvedFlushRefreshesHead drives the server's response flush into a
// full response ring: the client submits a window of small calls whose
// large replies fill its response ring, with nobody draining it — the
// window is in flight before anything waits, and the requests piggyback the
// consumed head of an untouched ring. The flush can learn that the client
// made room only from its own RDMA read of the client's published head,
// applied by the drain of the server QP's send CQ. Every call must complete
// with its reply, the server producer's readback region must have taken
// reads, and every pooled lease must come back. Inline (Workers 0) the
// starved flush holds the node's loop; behind a pool, a pool goroutine.
func TestStarvedFlushRefreshesHead(t *testing.T) {
	const bigID, window, replyBytes = 9, 48, 480
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := Options{MaxBatch: 4, QPsPerConn: 1, test: testKnobs{ringBytes: 8192, maxPayload: 512}}
			srvOpts := opts
			srvOpts.Workers = workers
			tc := newTestCluster(t, 1, srvOpts, opts)
			tc.server.RegisterHandler(bigID, func(req []byte) []byte {
				return bytes.Repeat(req[:1], replyBytes)
			})
			conn, err := tc.clients[0].Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			readback := tc.server.snapshotSconns()[0].qps[0].respProd.readback
			th := conn.RegisterThread()
			calls := make([]*Pending, window)
			for i := range calls {
				if calls[i], err = th.CallAsync(bigID, []byte{byte(i)}, CallOptions{}); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			// window × (replyBytes + framing) is about three rings: the
			// flush starves before the client's schedule pass first drains.
			waitFor(t, "the starved flush's head refresh", func() bool { return readback.Version() > 0 })
			for i, p := range calls {
				r, err := p.Wait()
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if !bytes.Equal(r.Data, bytes.Repeat([]byte{byte(i)}, replyBytes)) {
					t.Fatalf("call %d: a %d-byte reply that is not its own", i, len(r.Data))
				}
				r.Release()
			}
			t.Logf("%d head refreshes read", readback.Version())
			if n := awaitLeaseDrain(3 * time.Second); n != 0 {
				t.Fatalf("%d pooled leases outstanding after every reply was released", n)
			}
		})
	}
}
