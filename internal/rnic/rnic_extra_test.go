package rnic

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"flock/internal/fabric"
)

// Additional substrate coverage: UC semantics, CQ sharing, drain
// fairness, and concurrent atomic correctness.

func TestUCWriteAndSend(t *testing.T) {
	d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
	qa, qb, err := ConnectPair(d1, d2, UC)
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := d2.RegisterMR(1024, PermRemoteWrite)

	// One-sided write works on UC.
	if err := qa.PostSend(SendWR{WRID: 1, Op: OpWrite, Inline: []byte("uc-write"), RKey: remote.RKey(), Signaled: true}); err != nil {
		t.Fatal(err)
	}
	if c := pollOne(t, qa.SendCQ()); c.Status != StatusOK {
		t.Fatalf("uc write: %+v", c)
	}
	got := make([]byte, 8)
	remote.ReadAt(got, 0)
	if string(got) != "uc-write" {
		t.Fatalf("remote = %q", got)
	}

	// Send/recv works on UC.
	rbuf, _ := d2.RegisterMR(64, 0)
	qb.PostRecv(RecvWR{WRID: 2, MR: rbuf, Off: 0, Len: 64})
	if err := qa.PostSend(SendWR{WRID: 3, Op: OpSend, Inline: []byte("uc-send"), Signaled: true}); err != nil {
		t.Fatal(err)
	}
	rc := pollOne(t, qb.RecvCQ())
	if rc.ByteLen != 7 {
		t.Fatalf("uc recv: %+v", rc)
	}
}

func TestSharedCQAcrossQPs(t *testing.T) {
	// Several QPs feeding one CQ — the QP scheduler's shared RCQ pattern.
	d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
	shared := d2.CreateCQ()
	var clientQPs []*QP
	for i := 0; i < 4; i++ {
		qa, err := d1.CreateQP(RC, d1.CreateCQ(), d1.CreateCQ())
		if err != nil {
			t.Fatal(err)
		}
		qb, err := d2.CreateQP(RC, d2.CreateCQ(), shared)
		if err != nil {
			t.Fatal(err)
		}
		if err := qa.Connect(int(d2.Node()), qb.QPN()); err != nil {
			t.Fatal(err)
		}
		if err := qb.Connect(int(d1.Node()), qa.QPN()); err != nil {
			t.Fatal(err)
		}
		qb.PostRecv(RecvWR{WRID: uint64(100 + i)})
		clientQPs = append(clientQPs, qa)
	}
	ring, _ := d2.RegisterMR(4096, PermRemoteWrite)
	for i, qa := range clientQPs {
		if err := qa.PostSend(SendWR{
			Op: OpWriteImm, RKey: ring.RKey(), Imm: uint32(i), ImmValid: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// All four immediates land on the one shared CQ, each naming its QP.
	// Drain against a time deadline, yielding between polls: an
	// iteration-count spin can burn its whole budget before a goroutine
	// serving the device is ever scheduled on a small GOMAXPROCS.
	seen := map[int]bool{}
	var buf [8]Completion
	deadline := time.Now().Add(5 * time.Second)
	for len(seen) < 4 && time.Now().Before(deadline) {
		n := shared.Poll(buf[:])
		for _, c := range buf[:n] {
			if !c.ImmValid {
				t.Fatalf("missing imm: %+v", c)
			}
			seen[c.QPN] = true
		}
		if n == 0 {
			runtime.Gosched()
		}
	}
	if len(seen) != 4 {
		t.Fatalf("saw %d distinct QPNs on shared CQ", len(seen))
	}
}

func TestDrainFairnessAcrossQPs(t *testing.T) {
	// One QP with a deep backlog must not starve another QP's single
	// write for more than the drain budget.
	d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
	busy, _, err := ConnectPair(d1, d2, RC)
	if err != nil {
		t.Fatal(err)
	}
	quick, _, err := ConnectPair(d1, d2, RC)
	if err != nil {
		t.Fatal(err)
	}
	remote, _ := d2.RegisterMR(8192, PermRemoteWrite)

	// Backlog 20× the drain budget on the busy QP, then a single marker
	// write on the quick QP.
	var wrs []SendWR
	for i := 0; i < drainBudget*20; i++ {
		wrs = append(wrs, SendWR{Op: OpWrite, Inline: []byte{1}, RKey: remote.RKey(), RemoteOff: i % 4096})
	}
	if err := busy.PostSend(wrs...); err != nil {
		t.Fatal(err)
	}
	if err := quick.PostSend(SendWR{WRID: 7, Op: OpWrite, Inline: []byte{9}, RKey: remote.RKey(), RemoteOff: 8000, Signaled: true}); err != nil {
		t.Fatal(err)
	}
	// The quick QP's completion must arrive even while the busy backlog
	// is still draining (fairness), which pollOne's deadline verifies.
	if c := pollOne(t, quick.SendCQ()); c.WRID != 7 || c.Status != StatusOK {
		t.Fatalf("quick write: %+v", c)
	}
	d1.Quiesce()
	var got [1]byte
	remote.ReadAt(got[:], 8000)
	if got[0] != 9 {
		t.Fatal("quick write lost")
	}
}

func TestConcurrentRemoteAtomics(t *testing.T) {
	// Many client devices FAA-ing one server word must sum exactly —
	// atomicity across NICs, not just within one.
	fab := fabric.New(fabric.Config{})
	server, err := NewDevice(fab, Config{Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	word, _ := server.RegisterMR(64, PermRemoteAtomic)

	const nClients, perClient = 4, 300
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		dev, err := NewDevice(fab, Config{Node: fabric.NodeID(c + 1)})
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		qa, _, err := ConnectPair(dev, server, RC)
		if err != nil {
			t.Fatal(err)
		}
		local, _ := dev.RegisterMR(64, 0)
		wg.Add(1)
		go func(qa *QP, local *MemRegion) {
			defer wg.Done()
			var buf [1]Completion
			for i := 0; i < perClient; i++ {
				qa.PostSend(SendWR{ //nolint:errcheck
					Op: OpFetchAdd, LocalMR: local, RKey: word.RKey(),
					RemoteOff: 0, CompareAdd: 1, Signaled: true,
				})
				for qa.SendCQ().Poll(buf[:]) == 0 {
					runtime.Gosched()
				}
			}
		}(qa, local)
	}
	wg.Wait()
	if got := word.Load64(0); got != nClients*perClient {
		t.Fatalf("counter = %d, want %d", got, nClients*perClient)
	}
}

func TestPostRecvValidation(t *testing.T) {
	d1, _ := testPair(t, fabric.Config{}, Config{}, Config{})
	q, _ := d1.CreateQP(UD, d1.CreateCQ(), d1.CreateCQ())
	mr, _ := d1.RegisterMR(64, 0)
	// Recv buffer overrunning its MR is rejected at post time.
	if err := q.PostRecv(RecvWR{WRID: 1, MR: mr, Off: 60, Len: 8}); err == nil {
		t.Fatal("overrunning recv buffer accepted")
	}
	// MR-less recv with a length is rejected.
	if err := q.PostRecv(RecvWR{WRID: 2, Len: 8}); err == nil {
		t.Fatal("recv with length but no MR accepted")
	}
	// MR-less zero-length recv (write-imm consumer) is fine.
	if err := q.PostRecv(RecvWR{WRID: 3}); err != nil {
		t.Fatal(err)
	}
	if q.RecvDepth() != 1 {
		t.Fatalf("recv depth = %d", q.RecvDepth())
	}
}

func TestCountersSnapshot(t *testing.T) {
	d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
	qa, _, _ := ConnectPair(d1, d2, RC)
	remote, _ := d2.RegisterMR(1024, PermRemoteWrite)
	for i := 0; i < 10; i++ {
		qa.PostSend(SendWR{Op: OpWrite, Inline: []byte{1}, RKey: remote.RKey()}) //nolint:errcheck
	}
	d1.Quiesce()
	st := d1.Stats()
	if st.WorkRequests != 10 || st.Processed != 10 {
		t.Fatalf("wrs=%d processed=%d", st.WorkRequests, st.Processed)
	}
	if st.PacketsTX < 10 || st.BytesTX < 10 {
		t.Fatalf("pkts=%d bytes=%d", st.PacketsTX, st.BytesTX)
	}
}
