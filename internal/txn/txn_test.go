package txn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"flock/internal/baseline/udrpc"
	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/rnic"
	"flock/internal/workload"
)

// --- Wire encoding tests --------------------------------------------------

func TestExecReqRoundTrip(t *testing.T) {
	reads := []uint64{1, 5, 9}
	writes := []uint64{2, 4}
	r, w, err := decodeExecReq(encodeExecReq(reads, writes))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r) != fmt.Sprint(reads) || fmt.Sprint(w) != fmt.Sprint(writes) {
		t.Fatalf("round trip: %v %v", r, w)
	}
	if _, _, err := decodeExecReq([]byte{1, 2}); err == nil {
		t.Fatal("short exec req accepted")
	}
}

func TestExecRespRoundTrip(t *testing.T) {
	reads := []execRead{
		{verOff: 100, version: 7, val: []byte{1, 0, 0, 0, 0, 0, 0, 0}},
		{verOff: 200, version: 9, val: []byte{2, 0, 0, 0, 0, 0, 0, 0}},
	}
	writeVals := [][]byte{{3, 0, 0, 0, 0, 0, 0, 0}}
	b := encodeExecResp(execOK, reads, writeVals, 8)
	status, r, w, err := decodeExecResp(b, 2, 1, 8)
	if err != nil || status != execOK {
		t.Fatal(err, status)
	}
	if r[0].verOff != 100 || r[1].version != 9 || !bytes.Equal(w[0], writeVals[0]) {
		t.Fatalf("round trip: %+v %v", r, w)
	}
	// Locked status short-circuits.
	status, _, _, err = decodeExecResp(encodeExecResp(execLocked, nil, nil, 8), 2, 1, 8)
	if err != nil || status != execLocked {
		t.Fatal("locked status lost")
	}
}

func TestKeysAndWordsRoundTrip(t *testing.T) {
	keys := []uint64{3, 1, 4, 1, 5}
	got, err := decodeKeys(encodeKeys(keys))
	if err != nil || fmt.Sprint(got) != fmt.Sprint(keys) {
		t.Fatalf("keys: %v %v", got, err)
	}
	words := []uint64{10, 20, 30}
	w, err := decodeWords(encodeWords(words), 3)
	if err != nil || fmt.Sprint(w) != fmt.Sprint(words) {
		t.Fatalf("words: %v %v", w, err)
	}
	if _, err := decodeWords(encodeWords(words), 4); err == nil {
		t.Fatal("wrong count accepted")
	}
}

func TestUpdatesRoundTrip(t *testing.T) {
	keys := []uint64{7, 8}
	vals := [][]byte{{1, 1, 1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2, 2, 2}}
	p, k, v, err := decodeUpdates(encodeUpdates(3, keys, vals, 8), 8)
	if err != nil || p != 3 {
		t.Fatal(err, p)
	}
	if fmt.Sprint(k) != fmt.Sprint(keys) || !bytes.Equal(v[1], vals[1]) {
		t.Fatalf("round trip: %v %v", k, v)
	}
}

func TestPlacement(t *testing.T) {
	cfg := Config{Servers: 3, Replication: 3}.WithDefaults()
	if cfg.PartitionOf(7) != 1 {
		t.Fatalf("partition of 7 = %d", cfg.PartitionOf(7))
	}
	reps := cfg.ReplicasOf(2)
	if len(reps) != 2 || reps[0] != 0 || reps[1] != 1 {
		t.Fatalf("replicas of 2: %v", reps)
	}
	// With 3 servers and 3-way replication everyone hosts everything.
	for s := 0; s < 3; s++ {
		for p := 0; p < 3; p++ {
			if !cfg.HostsPartition(s, p) {
				t.Fatalf("server %d should host partition %d", s, p)
			}
		}
	}
	// Replication capped by server count.
	small := Config{Servers: 2, Replication: 5}.WithDefaults()
	if small.Replication != 2 {
		t.Fatalf("replication = %d", small.Replication)
	}
}

// --- Cluster harnesses ------------------------------------------------------

// flockCluster builds S txn servers over FLock plus one client node.
type flockCluster struct {
	net       *core.Network
	cfg       Config
	servers   []*Server
	serverIDs []fabric.NodeID
	client    *core.Node
}

func newFlockCluster(t *testing.T, cfg Config) *flockCluster {
	t.Helper()
	cfg = cfg.WithDefaults()
	nw := core.NewNetwork(fabric.Config{})
	t.Cleanup(nw.Close)
	fc := &flockCluster{net: nw, cfg: cfg}
	for i := 0; i < cfg.Servers; i++ {
		id := fabric.NodeID(100 + i)
		node, err := nw.NewNode(id, core.Options{QPsPerConn: 2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewFlockServerNode(node, cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Serve(); err != nil {
			t.Fatal(err)
		}
		fc.servers = append(fc.servers, srv)
		fc.serverIDs = append(fc.serverIDs, id)
	}
	client, err := nw.NewNode(1, core.Options{QPsPerConn: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc.client = client
	return fc
}

func (fc *flockCluster) coordinator(t *testing.T) *Coordinator {
	t.Helper()
	tr, err := NewFlockTransport(fc.client, fc.serverIDs)
	if err != nil {
		t.Fatal(err)
	}
	return NewCoordinator(fc.cfg, tr)
}

// loadKeys inserts key → initial on every hosting store.
func loadCluster(t *testing.T, cfg Config, servers []*Server, keys []uint64, initial uint64) {
	t.Helper()
	var buf [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[:], initial)
		p := cfg.PartitionOf(k)
		for s, srv := range servers {
			if cfg.HostsPartition(s, p) {
				if err := srv.Store(p).Insert(k, buf[:]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func keyRange(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// --- End-to-end over FLock ---------------------------------------------------

func TestFlockTxnCommitReadWrite(t *testing.T) {
	fc := newFlockCluster(t, Config{Servers: 3, StoreCapacity: 1 << 10})
	loadCluster(t, fc.cfg, fc.servers, keyRange(30), 100)
	co := fc.coordinator(t)

	// Read-only transaction.
	ro := workload.Txn{Reads: []uint64{1, 2, 17}}
	if err := co.Run(&ro); err != nil {
		t.Fatal(err)
	}
	// Read-write across partitions.
	rw := workload.Txn{Reads: []uint64{3}, Writes: []uint64{4, 5}, Delta: 50}
	if err := co.Run(&rw); err != nil {
		t.Fatal(err)
	}
	// Verify values on primaries.
	for _, k := range []uint64{4, 5} {
		p := fc.cfg.PartitionOf(k)
		var buf [8]byte
		if _, err := fc.servers[p].Store(p).Get(k, buf[:]); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf[:]); got != 150 {
			t.Fatalf("key %d = %d, want 150", k, got)
		}
	}
	if co.Commits != 2 || co.Aborts != 0 {
		t.Fatalf("commits=%d aborts=%d", co.Commits, co.Aborts)
	}
}

func TestFlockTxnReplication(t *testing.T) {
	fc := newFlockCluster(t, Config{Servers: 3, Replication: 3, StoreCapacity: 1 << 10})
	loadCluster(t, fc.cfg, fc.servers, keyRange(10), 0)
	co := fc.coordinator(t)
	w := workload.Txn{Writes: []uint64{6}, Delta: 42}
	if err := co.Run(&w); err != nil {
		t.Fatal(err)
	}
	p := fc.cfg.PartitionOf(6)
	// Every replica of partition p holds the new value.
	for s := 0; s < fc.cfg.Servers; s++ {
		if !fc.cfg.HostsPartition(s, p) {
			continue
		}
		var buf [8]byte
		if _, err := fc.servers[s].Store(p).Get(6, buf[:]); err != nil {
			t.Fatalf("server %d: %v", s, err)
		}
		if got := binary.LittleEndian.Uint64(buf[:]); got != 42 {
			t.Fatalf("server %d sees %d, want 42", s, got)
		}
	}
	// Logging actually ran on the two non-primary replicas.
	for s := 0; s < fc.cfg.Servers; s++ {
		if s == p {
			continue
		}
		_, _, _, logs := fc.servers[s].Stats()
		if logs == 0 {
			t.Fatalf("server %d logged nothing", s)
		}
	}
}

func TestFlockTxnConflictAborts(t *testing.T) {
	fc := newFlockCluster(t, Config{Servers: 1, Replication: 1, StoreCapacity: 1 << 10})
	loadCluster(t, fc.cfg, fc.servers, keyRange(4), 0)
	// Lock key 1 directly on the store, then run a txn writing it.
	if err := fc.servers[0].Store(0).Lock(1); err != nil {
		t.Fatal(err)
	}
	co := fc.coordinator(t)
	w := workload.Txn{Writes: []uint64{1}, Delta: 5}
	if err := co.Run(&w); err != ErrAborted {
		t.Fatalf("expected ErrAborted, got %v", err)
	}
	fc.servers[0].Store(0).Unlock(1, nil) //nolint:errcheck
	// Retry now succeeds.
	if _, err := co.RunRetry(&w, 5); err != nil {
		t.Fatal(err)
	}
}

func TestFlockTxnValidationCatchesChange(t *testing.T) {
	fc := newFlockCluster(t, Config{Servers: 1, Replication: 1, StoreCapacity: 1 << 10})
	loadCluster(t, fc.cfg, fc.servers, keyRange(4), 0)
	st := fc.servers[0].Store(0)

	// Interpose: change key 2 between execution and validation by using
	// a coordinator whose transport mutates the store on first ReadWord.
	base, err := NewFlockTransport(fc.client, fc.serverIDs)
	if err != nil {
		t.Fatal(err)
	}
	mut := &mutatingTransport{Transport: base, store: st, key: 2}
	co := NewCoordinator(fc.cfg, mut)
	txn := workload.Txn{Reads: []uint64{2}, Writes: []uint64{3}, Delta: 1}
	if err := co.Run(&txn); err != ErrAborted {
		t.Fatalf("stale read not caught: %v", err)
	}
	// The write lock was released by the abort: a fresh run commits.
	if err := co.Run(&txn); err != nil {
		t.Fatalf("post-abort run: %v", err)
	}
}

// mutatingTransport bumps a key's version right before the first
// validation read, simulating a concurrent writer between phases.
type mutatingTransport struct {
	Transport
	store interface {
		Apply(key uint64, val []byte) error
	}
	key  uint64
	done bool
}

func (m *mutatingTransport) ReadWord(server, off int) (uint64, bool, error) {
	if !m.done {
		m.done = true
		m.store.Apply(m.key, make([]byte, 8)) //nolint:errcheck
	}
	return m.Transport.ReadWord(server, off)
}

func TestFlockTxnConcurrentInvariant(t *testing.T) {
	// N coordinators deposit into overlapping accounts; the sum of all
	// balances must equal the sum of committed deltas (serializability's
	// observable effect for this workload).
	fc := newFlockCluster(t, Config{Servers: 3, StoreCapacity: 1 << 12})
	keys := keyRange(16)
	loadCluster(t, fc.cfg, fc.servers, keys, 0)

	const nCoord = 6
	const perCoord = 60
	var wg sync.WaitGroup
	var mu sync.Mutex
	var committedSum uint64
	for g := 0; g < nCoord; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr, err := NewFlockTransport(fc.client, fc.serverIDs)
			if err != nil {
				t.Error(err)
				return
			}
			co := NewCoordinator(fc.cfg, tr)
			// Added on every exit: a coordinator that gives up must not
			// also make the balance check below misreport lost updates.
			var localSum uint64
			defer func() {
				mu.Lock()
				committedSum += localSum
				mu.Unlock()
			}()
			for i := 0; i < perCoord; i++ {
				k1 := uint64((g*7 + i) % len(keys))
				k2 := uint64((g*13 + i*3) % len(keys))
				if k1 == k2 {
					k2 = (k2 + 1) % uint64(len(keys))
				}
				txn := workload.Txn{Writes: []uint64{k1, k2}, Delta: 1}
				if _, err := co.RunRetry(&txn, 100); err != nil {
					t.Error(err)
					return
				}
				localSum += 2 // two keys, +1 each
			}
		}(g)
	}
	wg.Wait()

	var total uint64
	var buf [8]byte
	for _, k := range keys {
		p := fc.cfg.PartitionOf(k)
		if _, err := fc.servers[p].Store(p).Get(k, buf[:]); err != nil {
			t.Fatal(err)
		}
		total += binary.LittleEndian.Uint64(buf[:])
	}
	if total != committedSum {
		t.Fatalf("balance sum %d != committed %d (lost or double-applied updates)", total, committedSum)
	}
}

// TestFlockTransportConnectErrors covers the client-side error paths.
func TestFlockTransportErrors(t *testing.T) {
	nw := core.NewNetwork(fabric.Config{})
	defer nw.Close()
	client, _ := nw.NewNode(1, core.Options{}, 0)
	if _, err := NewFlockTransport(client, []fabric.NodeID{55}); err == nil {
		t.Fatal("connect to unknown server succeeded")
	}
}

// --- End-to-end over the UD baseline (FaSST-style) -------------------------

type udCluster struct {
	cfg     Config
	servers []*Server
	usrvs   []*udrpc.Server
	cdev    *rnic.Device
}

func newUDCluster(t *testing.T, cfg Config, fcfg fabric.Config) *udCluster {
	t.Helper()
	cfg = cfg.WithDefaults()
	fab := fabric.New(fcfg)
	uc := &udCluster{cfg: cfg}
	for i := 0; i < cfg.Servers; i++ {
		dev, err := rnic.NewDevice(fab, rnic.Config{Node: fabric.NodeID(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dev.Close)
		usrv, err := udrpc.NewServer(dev, udrpc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(usrv.Close)
		srv, err := NewUDServer(usrv, cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		uc.servers = append(uc.servers, srv)
		uc.usrvs = append(uc.usrvs, usrv)
	}
	cdev, err := rnic.NewDevice(fab, rnic.Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cdev.Close)
	uc.cdev = cdev
	return uc
}

func TestUDTxnCommit(t *testing.T) {
	uc := newUDCluster(t, Config{Servers: 3, StoreCapacity: 1 << 10}, fabric.Config{})
	loadCluster(t, uc.cfg, uc.servers, keyRange(30), 100)
	tr, err := NewUDTransport(uc.cdev, udrpc.Config{}, uc.usrvs, 0)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(uc.cfg, tr)
	txn := workload.Txn{Reads: []uint64{1}, Writes: []uint64{2, 7}, Delta: 11}
	if err := co.Run(&txn); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{2, 7} {
		p := uc.cfg.PartitionOf(k)
		var buf [8]byte
		uc.servers[p].Store(p).Get(k, buf[:]) //nolint:errcheck
		if got := binary.LittleEndian.Uint64(buf[:]); got != 111 {
			t.Fatalf("key %d = %d, want 111", k, got)
		}
	}
}

func TestUDTxnUnderPacketLoss(t *testing.T) {
	// 10% loss: software reliability keeps transactions correct.
	uc := newUDCluster(t, Config{Servers: 3, StoreCapacity: 1 << 10},
		fabric.Config{UDLossProb: 0.1, Seed: 3})
	keys := keyRange(8)
	loadCluster(t, uc.cfg, uc.servers, keys, 0)
	tr, err := NewUDTransport(uc.cdev, udrpc.Config{}, uc.usrvs, 0)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(uc.cfg, tr)
	var sum uint64
	for i := 0; i < 60; i++ {
		txn := workload.Txn{Writes: []uint64{uint64(i) % 8}, Delta: 1}
		if _, err := co.RunRetry(&txn, 50); err != nil {
			t.Fatal(err)
		}
		sum++
	}
	var total uint64
	var buf [8]byte
	for _, k := range keys {
		p := uc.cfg.PartitionOf(k)
		uc.servers[p].Store(p).Get(k, buf[:]) //nolint:errcheck
		total += binary.LittleEndian.Uint64(buf[:])
	}
	if total != sum {
		t.Fatalf("sum %d != committed %d under loss", total, sum)
	}
	if tr.Retransmits() == 0 {
		t.Fatal("no retransmissions under 10% loss")
	}
}

// --- Benchmark-shaped smoke tests -------------------------------------------

func TestTATPOverFlock(t *testing.T) {
	fc := newFlockCluster(t, Config{Servers: 3, StoreCapacity: 1 << 12})
	loadCluster(t, fc.cfg, fc.servers, keyRange(1000), 1)
	co := fc.coordinator(t)
	gen := workload.NewTATP(7, 1000)
	commits, aborts := 0, 0
	for i := 0; i < 300; i++ {
		txn := gen.Next()
		switch err := co.Run(&txn); err {
		case nil:
			commits++
		case ErrAborted:
			aborts++
		default:
			t.Fatal(err)
		}
	}
	if commits == 0 {
		t.Fatal("no TATP transaction committed")
	}
	t.Logf("TATP: %d commits, %d aborts", commits, aborts)
}

func TestSmallbankOverFlock(t *testing.T) {
	fc := newFlockCluster(t, Config{Servers: 3, StoreCapacity: 1 << 12})
	loadCluster(t, fc.cfg, fc.servers, keyRange(2000), 1000)
	co := fc.coordinator(t)
	gen := workload.NewSmallbank(11, 1000)
	commits := 0
	for i := 0; i < 300; i++ {
		txn := gen.Next()
		if _, err := co.RunRetry(&txn, 20); err != nil {
			t.Fatal(err)
		}
		commits++
	}
	if commits != 300 {
		t.Fatalf("commits = %d", commits)
	}
}
