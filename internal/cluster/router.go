package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/resilience"
	"flock/internal/telemetry"
)

// ErrNoRoute reports that a call exhausted its redirect budget without
// landing on the shard's owner.
var ErrNoRoute = errors.New("cluster: no route to shard owner")

// maxRedirects bounds one call's redirect loop.
const maxRedirects = 10

// Router is the shard-aware client: one flock Conn per member, calls
// routed by key through the current shard map. It self-corrects from
// two signals — the epoch piggybacked on every OK reply (stale? fetch
// the map) and StatusWrongShard NACKs (which carry the newer map
// inline). The redirect loop of RouterThread.Call is the only retry loop
// under a routed call: each trip round it is one core attempt — one copy of
// the request on the wire, at most one execution — so a call puts at most
// maxRedirects copies of a put out, and the value contract (guarded
// take-the-max applies) is what makes the copies commute.
type Router struct {
	node  *core.Node
	peers *peerConns

	mu  sync.Mutex // orders Install
	cur atomic.Pointer[ShardMap]

	// members guards the Membership attachment.
	memMu      sync.Mutex
	membership *Membership

	// callBudget bounds one routed attempt. Tests shorten it before traffic.
	callBudget time.Duration

	redirects *telemetry.Counter
}

// NewRouter builds a router on the given client node with the initial
// map. Member connections are dialed lazily on first use, so a member
// that is down at construction does not fail the router.
func NewRouter(node *core.Node, initial *ShardMap) *Router {
	r := &Router{
		node:       node,
		peers:      newPeerConns(node),
		callBudget: 250 * time.Millisecond,
		redirects:  node.Telemetry().Counter("cluster.wrong_shard_redirects"),
	}
	r.cur.Store(initial)
	return r
}

// Node returns the client node the router dials from.
func (r *Router) Node() *core.Node { return r.node }

// Map returns the router's current shard map.
func (r *Router) Map() *ShardMap { return r.cur.Load() }

// Install adopts m if its epoch is newer. Returns whether it switched.
func (r *Router) Install(m *ShardMap) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur := r.cur.Load(); cur != nil && m.Epoch <= cur.Epoch {
		return false
	}
	r.cur.Store(m)
	return true
}

// Redirects reports the wrong-shard redirect count (also exported as
// the cluster.wrong_shard_redirects telemetry counter).
func (r *Router) Redirects() uint64 { return r.redirects.Load() }

func (r *Router) attachMembership(m *Membership) {
	r.memMu.Lock()
	r.membership = m
	r.memMu.Unlock()
}

// memberState consults the attached failure detector; with none
// attached every member counts as live.
func (r *Router) memberState(id fabric.NodeID) resilience.MemberState {
	r.memMu.Lock()
	m := r.membership
	r.memMu.Unlock()
	if m == nil {
		return resilience.MemberLive
	}
	return m.State(id)
}

// Close closes the router's member connections.
func (r *Router) Close() { r.peers.close() }

// Thread returns a per-goroutine routing handle. Like core.Thread, a
// RouterThread must not be shared between goroutines.
func (r *Router) Thread() *RouterThread {
	return &RouterThread{r: r, threads: r.peers.newThreads()}
}

// RouterThread is one goroutine's shard-routed call handle: a lazily
// created core.Thread per member plus the redirect state machine.
type RouterThread struct {
	r       *Router
	threads *peerThreads
	req     [kvReqLen]byte // the one Get or Put in progress
}

// Call routes one RPC by key: it sends to the current map's owner of
// the key's shard, follows WrongShard NACKs (installing the newer map
// they carry), refreshes the map when a reply's epoch piggyback is
// newer, and steers around members the failure detector marks dead or
// draining. On success the returned Response's Data has the epoch
// prefix already stripped.
func (rt *RouterThread) Call(rpcID uint32, key uint64, payload []byte) (core.Response, error) {
	var lastErr error
	for attempt := 0; attempt < maxRedirects; attempt++ {
		if attempt > 0 {
			// A redirect storm usually means a handoff is propagating;
			// yield briefly instead of hammering.
			time.Sleep(500 * time.Microsecond)
		}
		m := rt.r.Map()
		owner := m.OwnerOfKey(key)
		if st := rt.r.memberState(owner); st == resilience.MemberDead || st == resilience.MemberDraining {
			// The owner is unroutable; the map may have moved on without
			// us. Fetch the freshest map from any live member and retry.
			if rt.refresh() {
				continue
			}
		}
		th, err := rt.threads.thread(owner)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := th.CallWithDeadline(rpcID, payload, rt.r.callBudget)
		if err != nil {
			rt.threads.noteErr(owner, err)
			lastErr = err
			continue
		}
		switch resp.Status {
		case core.StatusOK:
			if len(resp.Data) < epochPrefixLen {
				resp.Release()
				return core.Response{}, fmt.Errorf("cluster: short reply (%d bytes)", len(resp.Data))
			}
			epoch := binary.LittleEndian.Uint64(resp.Data[:epochPrefixLen])
			if epoch > rt.r.Map().Epoch {
				rt.refreshFrom(owner)
			}
			resp.Data = resp.Data[epochPrefixLen:]
			return resp, nil
		case core.StatusWrongShard:
			if nm, err := DecodeShardMap(resp.Data); err == nil {
				rt.r.Install(nm)
			}
			rt.r.redirects.Inc()
			resp.Release()
			lastErr = ErrNoRoute
			continue
		default:
			return resp, nil
		}
	}
	if lastErr == nil {
		lastErr = ErrNoRoute
	}
	return core.Response{}, fmt.Errorf("cluster: call for key %#x failed: %w", key, lastErr)
}

// refreshFrom fetches and installs the map from one member.
func (rt *RouterThread) refreshFrom(id fabric.NodeID) bool {
	th, err := rt.threads.thread(id)
	if err != nil {
		return false
	}
	resp, err := th.CallWithDeadline(RPCMap, nil, rt.r.callBudget)
	if err != nil {
		rt.threads.noteErr(id, err)
		return false
	}
	defer resp.Release()
	if resp.Status != core.StatusOK {
		return false
	}
	m, err := DecodeShardMap(resp.Data)
	if err != nil {
		return false
	}
	return rt.r.Install(m)
}

// refresh tries every live member until one yields a newer map.
func (rt *RouterThread) refresh() bool {
	m := rt.r.Map()
	for _, id := range m.Members {
		if st := rt.r.memberState(id); st == resilience.MemberDead || st == resilience.MemberDraining {
			continue
		}
		if rt.refreshFrom(id) {
			return true
		}
	}
	return false
}

// Get reads a key from the sharded KV. Missing keys read as (0, false).
func (rt *RouterThread) Get(key uint64) (uint64, bool, error) {
	putKVReq(rt.req[:], OpGet, key, 0)
	resp, err := rt.Call(RPCKV, key, rt.req[:])
	if err != nil {
		return 0, false, err
	}
	defer resp.Release()
	if resp.Status != core.StatusOK {
		return 0, false, fmt.Errorf("cluster: get status %d", resp.Status)
	}
	if len(resp.Data) != 9 {
		return 0, false, fmt.Errorf("cluster: bad get reply length %d", len(resp.Data))
	}
	return binary.LittleEndian.Uint64(resp.Data[1:9]), resp.Data[0] == 1, nil
}

// Put writes a key into the sharded KV. val must be non-decreasing per
// key (the service's guarded-apply contract).
func (rt *RouterThread) Put(key, val uint64) error {
	putKVReq(rt.req[:], OpPut, key, val)
	resp, err := rt.Call(RPCKV, key, rt.req[:])
	if err != nil {
		return err
	}
	defer resp.Release()
	if resp.Status != core.StatusOK {
		return fmt.Errorf("cluster: put status %d", resp.Status)
	}
	return nil
}
