package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flock/internal/fabric"
)

// Shard-map wire format (little-endian). This is what WrongShard NACKs
// and the map-fetch RPC carry, so it must decode defensively: the bytes
// may arrive corrupted (the fabric's CorruptProb faults flip bits) and
// DecodeShardMap must reject garbage with an error, never panic or
// allocate absurdly.
//
// There is one layout, and each map has exactly one encoding:
//
//	+0   magic    uint32  'F','S','M','3'
//	+4   epoch    uint64
//	+12  shards   uint32
//	+16  vnodes   uint32
//	+20  nMembers uint32
//	+24  members  nMembers × int64
//	...  table    shards × int64 (primary per shard)
//	...  replicas uint32  (the configured R; 0 for an unreplicated map)
//	...  backups  per shard: count uint32, count × int64
//
// A shard's count is not bounded by R: the target of a move is carried as
// one more backup until its handoff. The earlier layouts ('FSM1' with a
// pending-migration list, 'FSM2' with replica sets ahead of that list) are
// rejected by their magic.

const (
	wireMagic = uint32('F') | uint32('S')<<8 | uint32('M')<<16 | uint32('3')<<24

	// Sanity bounds: anything larger is corruption, not configuration.
	maxWireShards   = 1 << 16
	maxWireVNodes   = 1 << 12
	maxWireMembers  = 1 << 12
	maxWireReplicas = 1 << 8
)

// ErrBadMap reports undecodable shard-map bytes.
var ErrBadMap = errors.New("cluster: malformed shard map")

// EncodedSize returns the exact Encode output length.
func (m *ShardMap) EncodedSize() int {
	n := 24 + 8*len(m.Members) + 8*len(m.Table) + 4
	for s := 0; s < m.Shards; s++ {
		n += 4 + 8*len(m.BackupsOf(s))
	}
	return n
}

// Encode serializes the map. The output is deterministic: equal maps
// encode to equal bytes.
func (m *ShardMap) Encode() []byte {
	b := make([]byte, 0, m.EncodedSize())
	b = binary.LittleEndian.AppendUint32(b, wireMagic)
	b = binary.LittleEndian.AppendUint64(b, m.Epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Shards))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.VNodes))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Members)))
	for _, id := range m.Members {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	for _, id := range m.Table {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Replicas))
	for s := 0; s < m.Shards; s++ {
		bs := m.BackupsOf(s)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(bs)))
		for _, id := range bs {
			b = binary.LittleEndian.AppendUint64(b, uint64(id))
		}
	}
	return b
}

// wireReader is a bounds-checked cursor over untrusted bytes.
type wireReader struct {
	b   []byte
	off int
	err bool
}

func (r *wireReader) u32() uint32 {
	if r.err || r.off+4 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err || r.off+8 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// DecodeShardMap parses Encode output. It validates the magic, size
// bounds, exact length, sorted-unique members, table owners drawn from
// the member set, and backup sets (at most members − 1 per shard,
// distinct, never the primary) — a map that decodes is safe to route by.
func DecodeShardMap(b []byte) (*ShardMap, error) {
	r := &wireReader{b: b}
	if r.u32() != wireMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadMap)
	}
	m := &ShardMap{Epoch: r.u64()}
	shards, vnodes, nMembers := r.u32(), r.u32(), r.u32()
	if r.err || shards == 0 || shards > maxWireShards ||
		vnodes == 0 || vnodes > maxWireVNodes ||
		nMembers == 0 || nMembers > maxWireMembers {
		return nil, fmt.Errorf("%w: bad geometry", ErrBadMap)
	}
	// Bound the remaining length before allocating.
	need := 8*int(nMembers) + 8*int(shards) + 4 + 4*int(shards)
	if len(b)-r.off < need {
		return nil, fmt.Errorf("%w: truncated", ErrBadMap)
	}
	m.Shards, m.VNodes = int(shards), int(vnodes)
	m.Members = make([]fabric.NodeID, nMembers)
	memberSet := make(map[fabric.NodeID]bool, nMembers)
	for i := range m.Members {
		id := fabric.NodeID(r.u64())
		if i > 0 && id <= m.Members[i-1] {
			return nil, fmt.Errorf("%w: members not sorted-unique", ErrBadMap)
		}
		m.Members[i] = id
		memberSet[id] = true
	}
	m.Table = make([]fabric.NodeID, shards)
	for i := range m.Table {
		id := fabric.NodeID(r.u64())
		if !memberSet[id] {
			return nil, fmt.Errorf("%w: table owner %d not a member", ErrBadMap, id)
		}
		m.Table[i] = id
	}
	replicas := r.u32()
	if replicas > maxWireReplicas {
		return nil, fmt.Errorf("%w: bad replica count", ErrBadMap)
	}
	m.Replicas = int(replicas)
	m.Backups = make([][]fabric.NodeID, shards)
	for s := range m.Backups {
		count := r.u32()
		if r.err || count >= nMembers {
			return nil, fmt.Errorf("%w: bad backup count", ErrBadMap)
		}
		if count == 0 {
			continue
		}
		if len(b)-r.off < 8*int(count) {
			return nil, fmt.Errorf("%w: truncated backups", ErrBadMap)
		}
		bs := make([]fabric.NodeID, count)
		for i := range bs {
			id := fabric.NodeID(r.u64())
			if !memberSet[id] || id == m.Table[s] {
				return nil, fmt.Errorf("%w: bad backup %d for shard %d", ErrBadMap, id, s)
			}
			for _, prev := range bs[:i] {
				if prev == id {
					return nil, fmt.Errorf("%w: duplicate backup %d for shard %d", ErrBadMap, id, s)
				}
			}
			bs[i] = id
		}
		m.Backups[s] = bs
	}
	if r.err || r.off != len(b) {
		return nil, fmt.Errorf("%w: length mismatch", ErrBadMap)
	}
	return m, nil
}

// Replication wire format. A primary synchronously forwards every
// guarded apply to its backups as an RPCReplicate frame and ACKs the
// client only after every backup ACKed; the frame carries the sender's
// map epoch so a deposed primary (one that kept serving past a
// failover) is fenced with a WrongShard NACK instead of silently
// diverging a backup. The snapshot that fills a freshly recruited backup
// travels in the same frames under the same fence. Like the shard map
// these bytes cross the fault-injectable fabric, so both directions
// decode defensively.
//
// Forward (request):
//
//	+0   magic  uint32  'F','R','P','2'
//	+4   epoch  uint64  sender's map epoch
//	+12  n      uint32
//	+16  n × (key uint64, val uint64)
//
// A frame carries no shard: it holds the puts of every shard the sender
// primaries under one backup set, and the backup derives each entry's
// shard with its own map's ShardOf — sound because the shard count is set
// once by NewReplicated and every later map carries it unchanged. The
// earlier layout ('FRP1', one shard per frame in a field after the epoch)
// is rejected by its magic.
//
// Ack (StatusOK reply payload):
//
//	+0   epoch   uint64  replier's map epoch
//	+8   applied uint32  entries that advanced the backup's store

const (
	replMagic = uint32('F') | uint32('R')<<8 | uint32('P')<<16 | uint32('2')<<24

	replHeaderLen = 16
	replAckLen    = 12

	// maxWireReplEntries bounds one forward frame; larger is corruption.
	maxWireReplEntries = 1 << 16
)

// ErrBadReplica reports undecodable replication-frame bytes.
var ErrBadReplica = errors.New("cluster: malformed replication frame")

// ReplicaEntry is one key/value pair in a replication forward.
type ReplicaEntry struct {
	Key, Val uint64
}

// ReplicaForward is one decoded replication forward frame.
type ReplicaForward struct {
	// Epoch is the sending primary's map epoch at forward time.
	Epoch uint64
	// Entries are the guarded (take-the-max) applies to replay, of any
	// shards that share the frame's backup set.
	Entries []ReplicaEntry
}

// AppendReplicaForward encodes f into b (which may be a pooled buffer
// sized with ReplicaForwardSize) and returns the extended slice.
func AppendReplicaForward(b []byte, f ReplicaForward) []byte {
	b = binary.LittleEndian.AppendUint32(b, replMagic)
	b = binary.LittleEndian.AppendUint64(b, f.Epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Entries)))
	for _, e := range f.Entries {
		b = binary.LittleEndian.AppendUint64(b, e.Key)
		b = binary.LittleEndian.AppendUint64(b, e.Val)
	}
	return b
}

// ReplicaForwardSize is the exact encoded length of a forward with n
// entries.
func ReplicaForwardSize(n int) int { return replHeaderLen + wireEntryLen*n }

// DecodeReplicaForward parses a forward frame: magic, bounded entry
// count, exact length. It never panics on arbitrary bytes.
func DecodeReplicaForward(b []byte) (ReplicaForward, error) {
	f, n, err := decodeReplicaHeader(b)
	if err != nil || n == 0 {
		return f, err
	}
	f.Entries = make([]ReplicaEntry, n)
	for i := range f.Entries {
		f.Entries[i] = replicaEntryAt(b, i)
	}
	return f, nil
}

// decodeReplicaHeader is DecodeReplicaForward without the entries: the
// validated header and the entry count, for a reader that walks the entries
// where they lie (replicaEntryAt) instead of copying them out.
func decodeReplicaHeader(b []byte) (f ReplicaForward, n int, err error) {
	r := wireReader{b: b}
	if r.u32() != replMagic {
		return f, 0, fmt.Errorf("%w: bad magic", ErrBadReplica)
	}
	f.Epoch = r.u64()
	count := r.u32()
	if r.err || count > maxWireReplEntries {
		return f, 0, fmt.Errorf("%w: bad geometry", ErrBadReplica)
	}
	if len(b) != ReplicaForwardSize(int(count)) {
		return f, 0, fmt.Errorf("%w: length mismatch", ErrBadReplica)
	}
	return f, int(count), nil
}

// replicaEntryAt reads entry i of a frame decodeReplicaHeader accepted.
func replicaEntryAt(b []byte, i int) ReplicaEntry {
	off := replHeaderLen + i*wireEntryLen
	return ReplicaEntry{
		Key: binary.LittleEndian.Uint64(b[off : off+8]),
		Val: binary.LittleEndian.Uint64(b[off+8 : off+16]),
	}
}

// EncodeReplicaAck encodes a forward's ACK payload.
func EncodeReplicaAck(epoch uint64, applied int) []byte {
	return appendReplicaAck(make([]byte, 0, replAckLen), epoch, applied)
}

func appendReplicaAck(b []byte, epoch uint64, applied int) []byte {
	b = binary.LittleEndian.AppendUint64(b, epoch)
	return binary.LittleEndian.AppendUint32(b, uint32(applied))
}

// DecodeReplicaAck parses an ACK payload.
func DecodeReplicaAck(b []byte) (epoch uint64, applied int, err error) {
	if len(b) != replAckLen {
		return 0, 0, fmt.Errorf("%w: ack length %d", ErrBadReplica, len(b))
	}
	return binary.LittleEndian.Uint64(b[0:8]), int(binary.LittleEndian.Uint32(b[8:12])), nil
}
