package core

import (
	"bytes"
	"testing"

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
	staging, err := dev.RegisterMR(size, 0)
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
		prod: &ringProducer{staging: staging, size: size},
		cons: newRingConsumer(dst, 0, size, ctrl, 0),
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
// second, and reset() forgets what the old head position looked like.
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

	// A recycled producer restarts at offset zero and may get there before
	// the consumer is reset. The consumer's last look, at its old head, saw
	// nothing, and nothing is written after it — the gate is armed — yet
	// the poll right after reset() must look at offset zero.
	if rp.cons.consumed() == 0 {
		t.Fatal("test needs a head away from zero")
	}
	rp.prod.reset()
	rp.produce(t, 17, []byte("at zero before the consumer rewinds"))
	mustBeEmpty("old head position")
	rp.cons.reset()
	mustPoll("message at zero right after reset")
	mustBeEmpty("drained")
	rp.produce(t, 19, []byte("and the one after"))
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
