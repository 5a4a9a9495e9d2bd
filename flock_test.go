package flock_test

import (
	"bytes"
	"sync"
	"testing"

	"flock"
)

// TestPublicAPIQuickstart walks the documented quickstart path through the
// public (root-package) API only.
func TestPublicAPIQuickstart(t *testing.T) {
	net := flock.NewNetwork(flock.FabricConfig{})
	defer net.Close()

	server, err := net.NewNode(1, flock.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	server.RegisterHandler(1, func(req []byte) []byte {
		return append([]byte("echo: "), req...)
	})
	if err := server.Serve(); err != nil {
		t.Fatal(err)
	}

	client, err := net.NewNode(2, flock.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	resp, err := th.Call(1, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "echo: hello" {
		t.Fatalf("resp = %q", resp.Data)
	}
	if resp.Status != flock.StatusOK {
		t.Fatalf("status = %d", resp.Status)
	}

	// Memory path.
	region, err := conn.AttachMemRegion(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Write(region, 0, []byte("mem")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := th.Read(region, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("mem")) {
		t.Fatalf("read back %q", got)
	}
	if old, err := th.FetchAdd(region, 8, 3); err != nil || old != 0 {
		t.Fatalf("faa: %v %d", err, old)
	}
}

func TestPublicAPIErrors(t *testing.T) {
	net := flock.NewNetwork(flock.FabricConfig{})
	defer net.Close()
	client, _ := net.NewNode(1, flock.Options{}, 0)
	if _, err := client.Connect(99); err != flock.ErrNoSuchNode {
		t.Fatalf("connect unknown: %v", err)
	}
	srv, _ := net.NewNode(2, flock.Options{}, 0)
	if _, err := client.Connect(2); err != flock.ErrNotServing {
		t.Fatalf("connect non-serving: %v", err)
	}
	srv.Serve()
	conn, err := client.Connect(2)
	if err != nil {
		t.Fatal(err)
	}
	th := conn.RegisterThread()
	if _, err := th.SendRPC(1, make([]byte, 1<<20)); err != flock.ErrPayloadTooLarge {
		t.Fatalf("oversized: %v", err)
	}
}

// TestPolicyFunctionsExported sanity-checks the exported pure policy
// functions benchmarks and downstream schedulers can reuse.
func TestPolicyFunctionsExported(t *testing.T) {
	asg := flock.AssignThreads([]flock.ThreadStat{
		{ID: 0, MedianReq: 64, Reqs: 10, Bytes: 640},
		{ID: 1, MedianReq: 64, Reqs: 10, Bytes: 640},
	}, 2)
	if len(asg) != 2 {
		t.Fatalf("assignments: %v", asg)
	}
	counts := flock.RedistributeQPs([][]float64{{10, 10}, {1, 1}}, 2)
	if len(counts) != 2 || counts[0] < 1 || counts[1] < 1 {
		t.Fatalf("counts: %v", counts)
	}
}

func TestPublicAPIConcurrent(t *testing.T) {
	net := flock.NewNetwork(flock.FabricConfig{})
	defer net.Close()
	server, _ := net.NewNode(1, flock.Options{QPsPerConn: 2}, 0)
	server.RegisterHandler(7, func(req []byte) []byte { return req })
	server.Serve()
	client, _ := net.NewNode(2, flock.Options{QPsPerConn: 2}, 0)
	conn, err := client.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := conn.RegisterThread()
			msg := []byte{byte(i)}
			for j := 0; j < 200; j++ {
				resp, err := th.Call(7, msg)
				if err != nil || !bytes.Equal(resp.Data, msg) {
					t.Errorf("call: %v %v", err, resp.Data)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
