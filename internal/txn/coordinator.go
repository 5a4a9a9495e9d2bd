package txn

import (
	"encoding/binary"
	"fmt"
	"time"

	"flock/internal/kvstore"
	"flock/internal/resilience"
	"flock/internal/stats"
	"flock/internal/workload"
)

// Transport is the coordinator's view of the cluster: pipelined RPCs to
// any server plus (optionally) a one-sided read of a word in a server's
// primary store arena.
type Transport interface {
	// CallMulti issues reqs[i] to servers[i] concurrently (pipelined) and
	// returns the responses in order.
	CallMulti(servers []int, rpcID uint32, reqs [][]byte) ([][]byte, error)
	// ReadWord reads 8 bytes at off in a server's primary arena. ok is
	// false when the transport has no one-sided reads (UD), in which case
	// the coordinator validates by RPC.
	ReadWord(server int, off int) (word uint64, ok bool, err error)
}

// Coordinator executes transactions against the cluster. One coordinator
// serves one client thread; it is not safe for concurrent use.
type Coordinator struct {
	cfg Config
	tr  Transport
	rng *stats.RNG // retry jitter

	// Commits and Aborts count outcomes.
	Commits uint64
	Aborts  uint64
}

// NewCoordinator builds a coordinator over a transport.
func NewCoordinator(cfg Config, tr Transport) *Coordinator {
	return &Coordinator{cfg: cfg.WithDefaults(), tr: tr, rng: stats.NewRNG(uint64(time.Now().UnixNano()))}
}

// partitionSets groups a transaction's keys by partition.
type partitionSets struct {
	parts  []int // involved partitions, ascending order of first use
	reads  map[int][]uint64
	writes map[int][]uint64
}

func (c *Coordinator) split(t *workload.Txn) partitionSets {
	ps := partitionSets{reads: make(map[int][]uint64), writes: make(map[int][]uint64)}
	touch := func(p int) {
		for _, q := range ps.parts {
			if q == p {
				return
			}
		}
		ps.parts = append(ps.parts, p)
	}
	for _, k := range t.Reads {
		p := c.cfg.PartitionOf(k)
		ps.reads[p] = append(ps.reads[p], k)
		touch(p)
	}
	for _, k := range t.Writes {
		p := c.cfg.PartitionOf(k)
		ps.writes[p] = append(ps.writes[p], k)
		touch(p)
	}
	return ps
}

// Run executes one transaction to commit or abort. ErrAborted signals an
// OCC conflict (retryable); other errors are transport failures.
func (c *Coordinator) Run(t *workload.Txn) error {
	ps := c.split(t)

	// 1. Execution phase: one RPC per involved partition.
	reqs := make([][]byte, len(ps.parts))
	for i, p := range ps.parts {
		reqs[i] = encodeExecReq(ps.reads[p], ps.writes[p])
	}
	resps, err := c.tr.CallMulti(ps.parts, RPCExec, reqs)
	if err != nil {
		return err
	}
	execOut := make(map[int]partExec, len(ps.parts))
	lockedParts := ps.parts[:0:0]
	conflicted := false
	for i, p := range ps.parts {
		status, rd, wv, err := decodeExecResp(resps[i], len(ps.reads[p]), len(ps.writes[p]), c.cfg.ValSize)
		if err != nil {
			return err
		}
		if status != execOK {
			conflicted = true
			continue
		}
		execOut[p] = partExec{reads: rd, writeVals: wv}
		if len(ps.writes[p]) > 0 {
			lockedParts = append(lockedParts, p)
		}
	}
	if conflicted {
		c.abort(ps, lockedParts)
		return ErrAborted
	}

	// 2. Validation phase: re-check read-set versions — one-sided when
	// the transport supports it (FLock), RPC otherwise (FaSST).
	if !c.validate(ps, execOut) {
		c.abort(ps, lockedParts)
		return ErrAborted
	}

	// Compute new write values: old + Delta (the engines' canonical
	// read-modify-write; see workload.Txn).
	newVals := make(map[int][][]byte, len(lockedParts))
	for _, p := range lockedParts {
		vals := make([][]byte, len(ps.writes[p]))
		for i, old := range execOut[p].writeVals {
			nv := make([]byte, c.cfg.ValSize)
			copy(nv, old)
			binary.LittleEndian.PutUint64(nv[:8], binary.LittleEndian.Uint64(old[:8])+t.Delta)
			vals[i] = nv
		}
		newVals[p] = vals
	}

	// 3. Logging phase: updates to every replica of each written
	// partition; replicas ACK after applying.
	var logServers []int
	var logReqs [][]byte
	for _, p := range lockedParts {
		msg := encodeUpdates(p, ps.writes[p], newVals[p], c.cfg.ValSize)
		for _, r := range c.cfg.ReplicasOf(p) {
			logServers = append(logServers, r)
			logReqs = append(logReqs, msg)
		}
	}
	if len(logServers) > 0 {
		acks, err := c.tr.CallMulti(logServers, RPCLog, logReqs)
		if err != nil {
			return err
		}
		for _, a := range acks {
			if len(a) != 1 || a[0] != 1 {
				return fmt.Errorf("txn: replica rejected log record")
			}
		}
	}

	// 4. Commit phase: primaries install and unlock.
	if len(lockedParts) > 0 {
		reqs := make([][]byte, len(lockedParts))
		for i, p := range lockedParts {
			reqs[i] = encodeUpdates(p, ps.writes[p], newVals[p], c.cfg.ValSize)
		}
		acks, err := c.tr.CallMulti(lockedParts, RPCCommit, reqs)
		if err != nil {
			return err
		}
		for _, a := range acks {
			if len(a) != 1 || a[0] != 1 {
				return fmt.Errorf("txn: primary rejected commit")
			}
		}
	}
	c.Commits++
	return nil
}

// partExec is one partition's execution-phase result.
type partExec struct {
	reads     []execRead
	writeVals [][]byte
}

// validate re-checks every read-set key's version: unchanged and
// unlocked. The one-sided path reads each version word directly from the
// primary's arena; the RPC path batches one validate call per partition.
func (c *Coordinator) validate(ps partitionSets, execOut map[int]partExec) bool {
	var rpcServers []int
	var rpcReqs [][]byte
	var rpcWant [][]uint64 // expected version words per request
	for _, p := range ps.parts {
		rd := execOut[p].reads
		if len(rd) == 0 {
			continue
		}
		// Try the one-sided path first.
		oneSided := true
		for i, r := range rd {
			word, ok, err := c.tr.ReadWord(p, int(r.verOff))
			if err != nil {
				return false
			}
			if !ok {
				oneSided = false
				break
			}
			if lockedWord(word) || versionOf(word) != versionOf(rd[i].version) {
				return false
			}
		}
		if oneSided {
			continue
		}
		rpcServers = append(rpcServers, p)
		rpcReqs = append(rpcReqs, encodeKeys(ps.reads[p]))
		want := make([]uint64, len(rd))
		for i, r := range rd {
			want[i] = r.version
		}
		rpcWant = append(rpcWant, want)
	}
	if len(rpcServers) == 0 {
		return true
	}
	resps, err := c.tr.CallMulti(rpcServers, RPCValidate, rpcReqs)
	if err != nil {
		return false
	}
	for i, resp := range resps {
		words, err := decodeWords(resp, len(rpcWant[i]))
		if err != nil {
			return false
		}
		for j, w := range words {
			if lockedWord(w) || versionOf(w) != versionOf(rpcWant[i][j]) {
				return false
			}
		}
	}
	return true
}

// abort unlocks write sets on partitions that granted locks.
func (c *Coordinator) abort(ps partitionSets, lockedParts []int) {
	if len(lockedParts) == 0 {
		c.Aborts++
		return
	}
	reqs := make([][]byte, len(lockedParts))
	for i, p := range lockedParts {
		reqs[i] = encodeKeys(ps.writes[p])
	}
	c.tr.CallMulti(lockedParts, RPCAbort, reqs) //nolint:errcheck // best effort
	c.Aborts++
}

// retryBackoff paces RunRetry. An OCC abort means another coordinator
// holds a lock; retried back to back, a whole retry budget can be spent
// while that holder is off-CPU. The first retries sleep microseconds —
// little more than a yield — and later ones up to a millisecond.
var retryBackoff = resilience.Backoff{Base: time.Microsecond, Cap: time.Millisecond}

// RunRetry runs t, retrying OCC aborts up to maxRetries with jittered
// backoff; it returns the number of attempts made and the final error (nil
// on commit).
func (c *Coordinator) RunRetry(t *workload.Txn, maxRetries int) (int, error) {
	for attempt := 1; ; attempt++ {
		err := c.Run(t)
		if err == nil {
			return attempt, nil
		}
		if err != ErrAborted || attempt > maxRetries {
			return attempt, err
		}
		time.Sleep(retryBackoff.Delay(attempt-1, c.rng))
	}
}

// Locked re-exports the kvstore lock-bit test for validation call sites.
func lockedWord(w uint64) bool { return kvstore.Locked(w) }

func versionOf(w uint64) uint64 { return kvstore.VersionOf(w) }
