package rnic

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"flock/internal/fabric"
	"flock/internal/mem"
)

// TestRCVerbsLeaseNoBuffer checks that RC Write, WriteImm and Read move
// their bytes straight from region to region: the right bytes land, no
// buffer is leased from the pool on the way, and the destination's Version
// moves once per MTU chunk.
func TestRCVerbsLeaseNoBuffer(t *testing.T) {
	const mtu = fabric.DefaultMTU
	const n = 3*mtu + 17 // four chunks
	cases := []struct {
		name string
		op   Opcode
	}{
		{"write", OpWrite},
		{"write-imm", OpWriteImm},
		{"read", OpRead},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d1, d2 := testPair(t, fabric.Config{}, Config{}, Config{})
			qa, qb, err := ConnectPair(d1, d2, RC)
			if err != nil {
				t.Fatal(err)
			}
			local, _ := d1.RegisterMR(n+100, 0)
			remote, _ := d2.RegisterMR(n+100, PermRemoteRead|PermRemoteWrite)
			src, dst, srcOff, dstOff := local, remote, 40, 60
			if c.op == OpRead {
				src, dst, srcOff, dstOff = remote, local, 60, 40
			}
			want := make([]byte, n)
			for i := range want {
				want[i] = byte(i*7 + 3)
			}
			if err := src.WriteAt(want, srcOff); err != nil {
				t.Fatal(err)
			}
			if c.op == OpWriteImm {
				if err := qb.PostRecv(RecvWR{WRID: 9}); err != nil {
					t.Fatal(err)
				}
			}

			gets, version := mem.Default.Stats().Gets, dst.Version()
			if err := qa.PostSend(SendWR{
				WRID: 1, Op: c.op, LocalMR: local, LocalOff: 40, LocalLen: n,
				RKey: remote.RKey(), RemoteOff: 60, Imm: 5, Signaled: true,
			}); err != nil {
				t.Fatal(err)
			}
			if sc := pollOne(t, qa.SendCQ()); sc.Status != StatusOK || sc.ByteLen != n {
				t.Fatalf("send completion %+v", sc)
			}
			if c.op == OpWriteImm {
				if rc := pollOne(t, qb.RecvCQ()); rc.WRID != 9 || rc.ByteLen != n || rc.Imm != 5 {
					t.Fatalf("receive completion %+v", rc)
				}
			}
			if d := mem.Default.Stats().Gets - gets; d != 0 {
				t.Errorf("%s leased %d pool buffers, want 0", c.name, d)
			}
			if d := dst.Version() - version; d != 4 {
				t.Errorf("destination version moved %d times, want 4 (one per chunk)", d)
			}
			got := make([]byte, n)
			if err := dst.ReadAt(got, dstOff); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("wrong bytes placed")
			}
		})
	}
}

// TestOpposedRegionCopies runs copies in both directions between the same
// two regions at once — writes A→B and B→A, reads of B into A and of A into
// B, each driven by its own device's processing unit — plus a loopback write
// whose source and destination are one region. A copy holds both regions'
// locks per chunk, so it must take them in one global order; taking them
// source first deadlocks the opposed pairs.
func TestOpposedRegionCopies(t *testing.T) {
	const (
		mtu     = 256
		size    = 4 * mtu // four chunks per copy
		batches = 2000
		batch   = 8
	)
	fab := fabric.New(fabric.Config{MTU: mtu})
	d1, err := NewDevice(fab, Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDevice(fab, Config{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	const perms = PermRemoteRead | PermRemoteWrite
	a, _ := d1.RegisterMR(3*size, perms)
	b, _ := d2.RegisterMR(3*size, perms)

	type stream struct {
		from, to *Device
		op       Opcode
		local    *MemRegion
		remote   *MemRegion
		localOff int
	}
	streams := []stream{
		{d1, d2, OpWrite, a, b, 0},    // A → B
		{d2, d1, OpWrite, b, a, 0},    // B → A
		{d1, d2, OpRead, a, b, 0},     // B → A
		{d2, d1, OpRead, b, a, 0},     // A → B
		{d1, d1, OpWrite, a, a, size}, // A → A
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(streams))
	for _, s := range streams {
		q, _, err := ConnectPair(s.from, s.to, RC)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wrs := make([]SendWR, batch)
			var cq [1]Completion
			for range batches {
				for i := range wrs {
					wrs[i] = SendWR{
						Op: s.op, LocalMR: s.local, LocalOff: s.localOff, LocalLen: size,
						RKey: s.remote.RKey(), RemoteOff: 2 * size, Signaled: i == batch-1,
					}
				}
				if err := q.PostSend(wrs...); err != nil {
					errs <- err
					return
				}
				for q.SendCQ().Poll(cq[:]) == 0 {
					runtime.Gosched()
				}
				if cq[0].Status != StatusOK {
					errs <- fmt.Errorf("completion status %v", cq[0].Status)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// The devices are left open: a deadlocked unit never gives its role
		// up, and Close would wait for it forever.
		t.Fatal("opposed copies did not finish: regions locked in conflicting orders")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	d1.Close()
	d2.Close()
}
