package udrpc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"flock/internal/fabric"
	"flock/internal/rnic"
)

// The §9 "generalizability" extension: coalescing responses over UD.

func coalesceSetup(t *testing.T, fcfg fabric.Config) (*Server, *ClientThread, *fabric.Fabric) {
	t.Helper()
	fab := fabric.New(fcfg)
	sdev, err := rnic.NewDevice(fab, rnic.Config{Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	cdev, err := rnic.NewDevice(fab, rnic.Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdev.Close(); cdev.Close() })
	cfg := Config{CoalesceResponses: true}
	srv, err := NewServer(sdev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.RegisterHandler(1, func(req []byte) []byte {
		out := make([]byte, len(req))
		copy(out, req)
		return out
	})
	ct, err := NewClientThread(cdev, cfg, int(srv.Node()), srv.QPNs()[0])
	if err != nil {
		t.Fatal(err)
	}
	return srv, ct, fab
}

func TestCoalescedResponsesCorrect(t *testing.T) {
	srv, ct, _ := coalesceSetup(t, fabric.Config{})
	// Burst a window so the server's CQ poll sees several requests from
	// this client at once; all responses must still match.
	const window = 12
	const rounds = 50
	want := map[uint32][]byte{}
	for r := 0; r < rounds; r++ {
		for k := 0; k < window; k++ {
			msg := []byte(fmt.Sprintf("r%d-k%d", r, k))
			seq, err := ct.Send(1, msg)
			if err != nil {
				t.Fatal(err)
			}
			want[seq] = msg
		}
		for k := 0; k < window; k++ {
			resp, err := ct.Recv()
			if err != nil {
				t.Fatal(err)
			}
			w, ok := want[resp.Seq]
			if !ok {
				t.Fatalf("unknown seq %d", resp.Seq)
			}
			if !bytes.Equal(resp.Data, w) {
				t.Fatalf("seq %d: %q != %q", resp.Seq, resp.Data, w)
			}
			delete(want, resp.Seq)
		}
	}
	if ct.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", ct.Outstanding())
	}
	if srv.Metrics().BatchedResponses == 0 {
		t.Fatal("no responses were coalesced under burst")
	}
	t.Logf("batched responses: %d of %d", srv.Metrics().BatchedResponses, rounds*window)
}

func TestCoalescingReducesPackets(t *testing.T) {
	run := func(coalesce bool) uint64 {
		fab := fabric.New(fabric.Config{})
		sdev, _ := rnic.NewDevice(fab, rnic.Config{Node: 0})
		cdev, _ := rnic.NewDevice(fab, rnic.Config{Node: 1})
		defer sdev.Close()
		defer cdev.Close()
		cfg := Config{CoalesceResponses: coalesce}
		srv, err := NewServer(sdev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.RegisterHandler(1, func(req []byte) []byte { return req })
		ct, err := NewClientThread(cdev, cfg, int(srv.Node()), srv.QPNs()[0])
		if err != nil {
			t.Fatal(err)
		}
		const window, rounds = 16, 10
		for r := 0; r < rounds; r++ {
			for k := 0; k < window; k++ {
				if _, err := ct.Send(1, []byte("pkt-count")); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < window; k++ {
				if _, err := ct.Recv(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Server→client packets only.
		return fab.Link(0, 1).Packets
	}
	plain := run(false)
	packed := run(true)
	if packed >= plain {
		t.Fatalf("coalescing did not reduce packets: %d vs %d", packed, plain)
	}
	t.Logf("server→client packets: plain=%d coalesced=%d (%.0f%% saved)",
		plain, packed, 100*(1-float64(packed)/float64(plain)))
}

func TestCoalescingUnderLoss(t *testing.T) {
	// Coalesced responses + 15% wire loss: retransmission still recovers
	// everything (lost batches are re-served per request from the cache).
	srv, ct, _ := coalesceSetup(t, fabric.Config{UDLossProb: 0.15, Seed: 5})
	_ = srv
	ct.cfg.retransmitTimeout = 200 * time.Microsecond
	const window, rounds = 8, 40
	want := map[uint32][]byte{}
	for r := 0; r < rounds; r++ {
		for k := 0; k < window; k++ {
			msg := []byte(fmt.Sprintf("loss-%d-%d", r, k))
			seq, err := ct.Send(1, msg)
			if err != nil {
				t.Fatal(err)
			}
			want[seq] = msg
		}
		for k := 0; k < window; k++ {
			resp, err := ct.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if w := want[resp.Seq]; !bytes.Equal(resp.Data, w) {
				t.Fatalf("seq %d: %q != %q", resp.Seq, resp.Data, w)
			}
			delete(want, resp.Seq)
		}
	}
	if len(want) != 0 {
		t.Fatalf("%d responses never arrived", len(want))
	}
}

func TestOversizedResponseFallsBackToPlain(t *testing.T) {
	// A response larger than the batch budget ships via the fragmented
	// plain path even with coalescing on.
	fab := fabric.New(fabric.Config{MTU: 512})
	sdev, _ := rnic.NewDevice(fab, rnic.Config{Node: 0})
	cdev, _ := rnic.NewDevice(fab, rnic.Config{Node: 1})
	defer sdev.Close()
	defer cdev.Close()
	cfg := Config{CoalesceResponses: true}
	srv, err := NewServer(sdev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	big := make([]byte, 2000)
	for i := range big {
		big[i] = byte(i * 13)
	}
	srv.RegisterHandler(1, func(req []byte) []byte { return big })
	ct, err := NewClientThread(cdev, cfg, int(srv.Node()), srv.QPNs()[0])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ct.Call(1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, big) {
		t.Fatal("oversized response corrupted")
	}
}
