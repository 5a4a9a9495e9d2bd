package txn

import (
	"encoding/binary"
	"fmt"

	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/kvstore"
)

// PrimaryRegionName is the exported-region name under which each FLock
// transaction server publishes its primary partition's arena, so
// coordinators can validate read sets with one-sided reads.
const PrimaryRegionName = "flocktx-primary"

// FlockTransport runs the coordinator over FLock connection handles: RPCs
// ride the coalescing RPC layer, and validation uses fl_read against the
// exported primary arenas (the full FLockTX configuration of §8.5).
//
// One FlockTransport serves one coordinator thread.
type FlockTransport struct {
	threads []*core.Thread       // one per server
	regions []*core.RemoteRegion // exported primary arenas
}

// NewFlockServerNode provisions the server side: it exports the primary
// arena plus replica arenas on the FLock node, builds the txn.Server, and
// registers its handlers. Call before clients connect.
func NewFlockServerNode(node *core.Node, cfg Config, idx int) (*Server, error) {
	cfg = cfg.WithDefaults()
	arenas := make(map[int]kvstore.Mem)
	size := kvstore.ArenaSize(cfg.StoreCapacity, cfg.ValSize)
	primary, err := node.ExportMR(PrimaryRegionName, size)
	if err != nil {
		return nil, err
	}
	arenas[idx] = primary
	for p := 0; p < cfg.Servers; p++ {
		if p != idx && cfg.HostsPartition(idx, p) {
			mr, err := node.ExportMR(fmt.Sprintf("flocktx-replica-%d", p), size)
			if err != nil {
				return nil, err
			}
			arenas[p] = mr
		}
	}
	srv, err := NewServer(cfg, idx, arenas)
	if err != nil {
		return nil, err
	}
	srv.Register(registrarFunc(node.RegisterHandler))
	return srv, nil
}

// registrarFunc adapts a RegisterHandler method with a concrete handler
// type to the engine's Registrar interface.
type registrarFunc func(uint32, core.Handler)

func (f registrarFunc) RegisterHandler(rpcID uint32, fn func([]byte) []byte) {
	f(rpcID, fn)
}

// NewFlockTransport connects a client node to every server node and
// attaches their primary arenas. serverIDs[i] must be the fabric address
// of txn server i.
func NewFlockTransport(client *core.Node, serverIDs []fabric.NodeID) (*FlockTransport, error) {
	t := &FlockTransport{}
	for _, id := range serverIDs {
		conn, err := client.Connect(id)
		if err != nil {
			return nil, err
		}
		th := conn.RegisterThread()
		region, err := conn.AttachNamed(PrimaryRegionName)
		if err != nil {
			return nil, err
		}
		t.threads = append(t.threads, th)
		t.regions = append(t.regions, region)
	}
	return t, nil
}

// NewFlockTransportShared builds a transport from already-connected
// connection handles (one per server, in server order); each coordinator
// thread registers its own Thread on the shared connections, which is the
// multi-threaded-client shape the paper evaluates.
func NewFlockTransportShared(conns []*core.Conn) (*FlockTransport, error) {
	t := &FlockTransport{}
	for _, conn := range conns {
		th := conn.RegisterThread()
		region, err := conn.AttachNamed(PrimaryRegionName)
		if err != nil {
			return nil, err
		}
		t.threads = append(t.threads, th)
		t.regions = append(t.regions, region)
	}
	return t, nil
}

// CallMulti pipelines the requests on the asynchronous call path: every
// request is submitted as a Pending before any result is collected, so
// requests to the same server enter its combining queue together and
// coalesce under one doorbell. Completion records route each response to
// its exact request — no sequence-ID matching or out-of-order stash — and
// the async path carries the node's full retry/dedup plan.
func (t *FlockTransport) CallMulti(servers []int, rpcID uint32, reqs [][]byte) ([][]byte, error) {
	pends := make([]*core.Pending, len(servers))
	fail := func(err error) error {
		for _, p := range pends {
			if p != nil {
				p.Cancel()
			}
		}
		return err
	}
	for i, s := range servers {
		p, err := t.threads[s].CallAsync(rpcID, reqs[i], core.CallOptions{})
		if err != nil {
			return nil, fail(err)
		}
		pends[i] = p
	}
	out := make([][]byte, len(servers))
	for i, p := range pends {
		r, err := p.Wait()
		pends[i] = nil
		if err != nil {
			return nil, fail(err)
		}
		if r.Status != core.StatusOK {
			r.Release()
			return nil, fail(fmt.Errorf("txn: rpc %d failed with status %d", rpcID, r.Status))
		}
		// The caller keeps the payloads past this call, so copy out of the
		// pooled view and recycle the lease.
		out[i] = append([]byte(nil), r.Data...)
		r.Release()
	}
	return out, nil
}

// ReadWord validates with a one-sided read of the primary arena.
func (t *FlockTransport) ReadWord(server, off int) (uint64, bool, error) {
	var buf [8]byte
	if err := t.threads[server].Read(t.regions[server], off, buf[:]); err != nil {
		return 0, true, err
	}
	return binary.LittleEndian.Uint64(buf[:]), true, nil
}

// Threads exposes the per-server FLock threads (benchmarks inspect them).
func (t *FlockTransport) Threads() []*core.Thread { return t.threads }

// assert the interface is satisfied.
var _ Transport = (*FlockTransport)(nil)
