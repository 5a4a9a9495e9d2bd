package cluster

import (
	"errors"
	"sync"

	"flock/internal/core"
	"flock/internal/fabric"
)

// peerConns is one node's connection handles to the cluster's members:
// dialed on first use, dropped when one fails for good so that the next use
// re-dials. The router, its failure detector and a member's replication
// plane all reach their peers through one of these — a handle dies the same
// way under each (its link is cut for good, the peer closes, or its QPs
// fail one by one where their siblings work) and must be able to come back
// the same way.
type peerConns struct {
	node  *core.Node
	mu    sync.Mutex
	conns map[fabric.NodeID]*core.Conn
}

func newPeerConns(node *core.Node) *peerConns {
	return &peerConns{node: node, conns: make(map[fabric.NodeID]*core.Conn)}
}

// conn returns the handle to id, dialing it if there is none.
func (pc *peerConns) conn(id fabric.NodeID) (*core.Conn, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if c, ok := pc.conns[id]; ok {
		return c, nil
	}
	c, err := pc.node.Connect(id)
	if err != nil {
		return nil, err
	}
	pc.conns[id] = c
	return c, nil
}

// invalidate drops the handle to id after it failed permanently. Only the
// stale handle itself is removed, so users that saw the same failure one
// after another do not tear down the replacement the first of them dialed.
func (pc *peerConns) invalidate(id fabric.NodeID, stale *core.Conn) {
	pc.mu.Lock()
	if pc.conns[id] == stale {
		delete(pc.conns, id)
	}
	pc.mu.Unlock()
	stale.Close()
}

// close closes every handle.
func (pc *peerConns) close() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, c := range pc.conns {
		c.Close()
	}
	clear(pc.conns)
}

// peerThreads is one goroutine's core.Threads over a peerConns, one per
// peer and registered on first use; like a core.Thread it must not be shared
// between goroutines.
type peerThreads struct {
	pc      *peerConns
	threads map[fabric.NodeID]*core.Thread
}

func (pc *peerConns) newThreads() *peerThreads {
	return &peerThreads{pc: pc, threads: make(map[fabric.NodeID]*core.Thread)}
}

func (pt *peerThreads) thread(id fabric.NodeID) (*core.Thread, error) {
	if th, ok := pt.threads[id]; ok {
		return th, nil
	}
	c, err := pt.pc.conn(id)
	if err != nil {
		return nil, err
	}
	th := c.RegisterThread()
	pt.threads[id] = th
	return th, nil
}

// noteErr is told the outcome of every call made on the thread to id: when
// the handle under it is closed for good (ErrConnClosed), the thread is
// dropped with it, and the next thread(id) dials a new one.
func (pt *peerThreads) noteErr(id fabric.NodeID, err error) {
	if !errors.Is(err, core.ErrConnClosed) {
		return
	}
	if th, ok := pt.threads[id]; ok {
		delete(pt.threads, id)
		pt.pc.invalidate(id, th.Conn())
	}
}
