package udrpc

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"flock/internal/fabric"
	"flock/internal/rnic"
)

func testSetup(t *testing.T, fcfg fabric.Config, cfg Config) (*Server, *rnic.Device) {
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
	return srv, cdev
}

func TestEcho(t *testing.T) {
	srv, cdev := testSetup(t, fabric.Config{}, Config{})
	ct, err := NewClientThread(cdev, Config{}, int(srv.Node()), srv.QPNs()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		msg := []byte(fmt.Sprintf("msg-%d", i))
		resp, err := ct.Call(1, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Data, msg) {
			t.Fatalf("echo mismatch: %q", resp.Data)
		}
	}
	if srv.Metrics().RequestsServed != 200 {
		t.Fatalf("served = %d", srv.Metrics().RequestsServed)
	}
}

func TestFragmentedPayload(t *testing.T) {
	srv, cdev := testSetup(t, fabric.Config{MTU: 1024}, Config{})
	ct, err := NewClientThread(cdev, Config{}, int(srv.Node()), srv.QPNs()[0])
	if err != nil {
		t.Fatal(err)
	}
	// 10 KB payload over 1 KB MTU: ~11 fragments each way.
	big := make([]byte, 10_000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	resp, err := ct.Call(1, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, big) {
		t.Fatal("fragmented payload corrupted")
	}
}

func TestOutstandingWindow(t *testing.T) {
	srv, cdev := testSetup(t, fabric.Config{}, Config{})
	_ = srv
	ct, err := NewClientThread(cdev, Config{}, int(srv.Node()), srv.QPNs()[0])
	if err != nil {
		t.Fatal(err)
	}
	const window = 8
	sent := map[uint32]bool{}
	for i := 0; i < window; i++ {
		seq, err := ct.Send(1, []byte(fmt.Sprintf("w%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		sent[seq] = true
	}
	for i := 0; i < window; i++ {
		r, err := ct.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !sent[r.Seq] {
			t.Fatalf("unexpected seq %d", r.Seq)
		}
		delete(sent, r.Seq)
	}
	if ct.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", ct.Outstanding())
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	// 20% wire loss: software reliability must still deliver everything.
	srv, cdev := testSetup(t, fabric.Config{UDLossProb: 0.2, Seed: 9}, Config{retransmitTimeout: 200 * time.Microsecond})
	ct, err := NewClientThread(cdev, Config{retransmitTimeout: 200 * time.Microsecond}, int(srv.Node()), srv.QPNs()[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		msg := []byte(fmt.Sprintf("lossy-%d", i))
		resp, err := ct.Call(1, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Data, msg) {
			t.Fatalf("mismatch under loss: %q != %q", resp.Data, msg)
		}
	}
	if ct.Retransmits() == 0 {
		t.Fatal("no retransmissions under 20% loss")
	}
	t.Logf("retransmits=%d duplicates=%d", ct.Retransmits(), srv.Metrics().DuplicatesServed)
}

func TestTotalLossTimesOut(t *testing.T) {
	srv, cdev := testSetup(t, fabric.Config{UDLossProb: 1.0, Seed: 1},
		Config{retransmitTimeout: 50 * time.Microsecond, maxRetries: 3})
	ct, err := NewClientThread(cdev, Config{retransmitTimeout: 50 * time.Microsecond, maxRetries: 3},
		int(srv.Node()), srv.QPNs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Call(1, []byte("void")); err != ErrTimeout {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
}

func TestManyClientThreads(t *testing.T) {
	srv, cdev := testSetup(t, fabric.Config{}, Config{serverQPs: 2})
	qpns := srv.QPNs()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ct, err := NewClientThread(cdev, Config{}, int(srv.Node()), qpns[id%len(qpns)])
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 100; j++ {
				msg := []byte(fmt.Sprintf("t%d-%d", id, j))
				resp, err := ct.Call(1, msg)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(resp.Data, msg) {
					t.Errorf("mismatch: %q", resp.Data)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := srv.Metrics().RequestsServed; got != 800 {
		t.Fatalf("served = %d, want 800", got)
	}
	// Receive-buffer recycling happened once per packet — the §2.2 cost.
	if srv.Metrics().RecvRecycles < 800 {
		t.Fatalf("recycles = %d", srv.Metrics().RecvRecycles)
	}
}

func TestPayloadTooBig(t *testing.T) {
	srv, cdev := testSetup(t, fabric.Config{}, Config{maxPayload: 128})
	ct, err := NewClientThread(cdev, Config{maxPayload: 128}, int(srv.Node()), srv.QPNs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Send(1, make([]byte, 129)); err != ErrTooBig {
		t.Fatalf("expected ErrTooBig, got %v", err)
	}
}

func TestNoHandlerEmptyResponse(t *testing.T) {
	srv, cdev := testSetup(t, fabric.Config{}, Config{})
	ct, _ := NewClientThread(cdev, Config{}, int(srv.Node()), srv.QPNs()[0])
	resp, err := ct.Call(99, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Data) != 0 {
		t.Fatalf("unregistered handler returned %q", resp.Data)
	}
}

func TestPktHeaderRoundTrip(t *testing.T) {
	var b [hdrBytes]byte
	in := pktHeader{
		kind: kindResponse, rpcID: 7, client: 0xAABBCCDD00112233,
		seq: 42, ackBelow: 40, frag: 3, fragCnt: 9, totalLen: 31337,
	}
	putPktHeader(b[:], in)
	if out := getPktHeader(b[:]); out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}
