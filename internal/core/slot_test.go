package core

import (
	"bytes"
	"fmt"
	"testing"

	"flock/internal/mem"
	"flock/internal/rnic"
)

// liveSlots counts the records in th's pending-call table: slots neither
// free nor drained.
func liveSlots(th *Thread) int {
	n := 0
	th.pend.each(func(rec *callRec) {
		if st := rec.state(); st != recFree && st != recDrained {
			n++
		}
	})
	return n
}

// TestSlotRejectsStaleIDs pins what the generation in a call ID is for: a
// slot is reused by the thread's next call, and a completion that names the
// slot's earlier call — a late response off the wire, or a memory op's WRID
// carrying only the ID's low bits — must not resolve the new one. It is
// dropped and counted stale, and so is an ID naming a slot on a page the
// table never allocated. A window of calls grows the table past one page and
// gives every slot back.
func TestSlotRejectsStaleIDs(t *testing.T) {
	tc := newTestCluster(t, 1, Options{}, Options{})
	registerEcho(tc.server)
	conn, err := tc.clients[0].Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	m := &tc.clients[0].metrics
	p := &th.pend

	old, _ := p.register(0)
	oldID := old.seq
	p.abandon(old)
	rec, _ := p.register(0)
	if rec != old || rec.seq == oldID {
		t.Fatalf("re-registration took slot %d under ID %#x, want slot %d under a new generation",
			rec.seq&slotMask, rec.seq, oldID&slotMask)
	}
	stale := func(what string, deliver func()) {
		t.Helper()
		d0 := m.staleDrops.Load()
		deliver()
		if d := m.staleDrops.Load() - d0; d != 1 {
			t.Errorf("%s: %d stale drops, want 1", what, d)
		}
		if st := rec.state(); st != recPending || rec.resp.buf != nil || rec.resp.err != nil || rec.resp.Data != nil || p.depth() != 1 {
			t.Errorf("%s: the slot's live record is in state %d with %+v (depth %d), want pending and untouched",
				what, st, rec.resp, p.depth())
		}
	}
	stale("the old ID off the wire", func() {
		buf := mem.Get(8)
		conn.deliverResponse(&decodedItem{meta: itemMeta{threadID: th.ID(), seqID: oldID}, data: buf.Data()}, buf)
		buf.Release()
	})
	stale("the old ID in a memory-op WRID", func() {
		conn.routeSendCompletion(conn.qps[0], rnic.Completion{WRID: memWRID(th.ID(), oldID), Status: rnic.StatusOK})
	})
	unpaged := uint64(1)<<slotBits | 5*pageSlots // generation 1 of a slot on page 5
	if p.dir[5].Load() != nil {
		t.Fatal("one registration allocated page 5")
	}
	stale("an ID on a page never allocated", func() {
		conn.routeSendCompletion(conn.qps[0], rnic.Completion{WRID: memWRID(th.ID(), unpaged), Status: rnic.StatusOK})
	})
	if p.complete(unpaged, wholeSeq, &Response{}) {
		t.Error("an ID on a page never allocated completed a record")
	}
	if !p.complete(rec.seq, wholeSeq, &Response{}) {
		t.Fatal("the live ID missed its record")
	}
	if _, ok := p.takeDone(rec); !ok {
		t.Fatal("takeDone lost the live record")
	}

	const window = 200
	pends := make([]*Pending, window)
	for i := range pends {
		if pends[i], err = th.CallAsync(echoID, []byte(fmt.Sprint(i)), CallOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if p.pages*pageSlots < window {
		t.Errorf("%d calls in a table of %d pages of %d", window, p.pages, pageSlots)
	}
	for i, pd := range pends {
		r, err := pd.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if want := []byte(fmt.Sprint(i)); !bytes.Equal(r.Data, want) {
			t.Errorf("call %d: reply %q, want %q", i, r.Data, want)
		}
		r.Release()
	}
	if n := liveSlots(th); n != 0 || th.Outstanding() != 0 {
		t.Errorf("%d live slots (depth %d) after the window drained, want 0", n, th.Outstanding())
	}
}

// TestMemWRIDLayout pins the memory-op WRID: the tag, a thread ID up to
// memThreadMask and the call ID's slot and low generation bits all survive
// the round trip, and none spills into another.
func TestMemWRIDLayout(t *testing.T) {
	const gen = 1<<28 | 0xabcdef1 // bit 28 falls outside the WRID
	id := uint64(gen)<<slotBits | slotMask
	for _, th := range []uint32{0, 1, memThreadMask} {
		wrid := memWRID(th, id)
		if wrid&tagMask != tagMem || memWRThread(wrid) != th || wrid&memSeqMask != id&memSeqMask {
			t.Errorf("thread %d, ID %#x: WRID %#x reads tag %#x, thread %d, ID bits %#x",
				th, id, wrid, wrid&tagMask, memWRThread(wrid), wrid&memSeqMask)
		}
		if (wrid&memSeqMask)>>slotBits != 0xabcdef1 {
			t.Errorf("WRID %#x carries generation bits %#x, want the low 28 of %#x", wrid, (wrid&memSeqMask)>>slotBits, gen)
		}
	}
}
