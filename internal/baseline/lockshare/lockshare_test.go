package lockshare

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"flock/internal/fabric"
	"flock/internal/rnic"
)

func testSetup(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	fab := fabric.New(fabric.Config{})
	sdev, err := rnic.NewDevice(fab, rnic.Config{Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	cdev, err := rnic.NewDevice(fab, rnic.Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdev.Close(); cdev.Close() })
	srv := NewServer(sdev, cfg)
	t.Cleanup(srv.Close)
	srv.RegisterHandler(1, func(req []byte) []byte {
		out := make([]byte, len(req))
		copy(out, req)
		return out
	})
	return srv, NewClient(cdev, cfg, srv)
}

func TestNoSharingEcho(t *testing.T) {
	_, cl := testSetup(t, Config{ThreadsPerQP: 1})
	th, err := cl.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		msg := []byte(fmt.Sprintf("ns-%d", i))
		resp, err := th.Call(1, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, msg) {
			t.Fatalf("mismatch: %q", resp)
		}
	}
}

func TestSpinlockSharing(t *testing.T) {
	for _, tpq := range []int{2, 4} {
		t.Run(fmt.Sprintf("threads-per-qp-%d", tpq), func(t *testing.T) {
			srv, cl := testSetup(t, Config{ThreadsPerQP: tpq})
			const nThreads = 8
			const perThread = 150
			var wg sync.WaitGroup
			for i := 0; i < nThreads; i++ {
				th, err := cl.RegisterThread()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(th *Thread, id int) {
					defer wg.Done()
					for j := 0; j < perThread; j++ {
						msg := []byte(fmt.Sprintf("t%d-%d", id, j))
						resp, err := th.Call(1, msg)
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(resp, msg) {
							t.Errorf("mismatch: %q != %q", resp, msg)
							return
						}
					}
				}(th, i)
			}
			wg.Wait()
			if got := srv.Served(); got != nThreads*perThread {
				t.Fatalf("served = %d, want %d", got, nThreads*perThread)
			}
		})
	}
}

func TestQPCountMatchesSharingDegree(t *testing.T) {
	srv, cl := testSetup(t, Config{ThreadsPerQP: 4})
	for i := 0; i < 8; i++ {
		if _, err := cl.RegisterThread(); err != nil {
			t.Fatal(err)
		}
	}
	// 8 threads at 4/QP ⇒ 2 shared QPs on the client.
	cl.mu.Lock()
	shares := len(cl.shares)
	cl.mu.Unlock()
	if shares != 2 {
		t.Fatalf("client created %d QPs, want 2", shares)
	}
	_ = srv
}

func TestRingWrapLongRun(t *testing.T) {
	// Small ring forces wraps; payloads vary to exercise padding.
	_, cl := testSetup(t, Config{ThreadsPerQP: 1, ringBytes: 4096, maxPayload: 256})
	th, err := cl.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		msg := make([]byte, 1+i%256)
		for j := range msg {
			msg[j] = byte(i)
		}
		resp, err := th.Call(1, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, msg) {
			t.Fatalf("round %d corrupted", i)
		}
	}
}

func TestPayloadTooBig(t *testing.T) {
	_, cl := testSetup(t, Config{ThreadsPerQP: 1, maxPayload: 64})
	th, _ := cl.RegisterThread()
	if _, err := th.Call(1, make([]byte, 65)); err != ErrTooBig {
		t.Fatalf("expected ErrTooBig, got %v", err)
	}
}

func TestSpinLock(t *testing.T) {
	var l spinLock
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d (lock broken)", counter)
	}
}
