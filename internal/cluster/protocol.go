package cluster

import "encoding/binary"

// RPC IDs the cluster layer registers on every member node. They live
// in a high range so tenants layered on the same nodes can use low IDs.
const (
	// RPCPing is the membership probe. Empty request; reply is the
	// member's 8-byte map epoch. A draining member NACKs it at admission
	// (StatusDraining), which the failure detector reads as "healthy but
	// decommissioning".
	RPCPing = 0xC1
	// RPCKV is the sharded KV data path. Request: op(1) key(8) val(8).
	// OK replies carry the epoch prefix; a mis-routed request is NACKed
	// with StatusWrongShard and the server's encoded map as payload.
	RPCKV = 0xC2
	// RPCMap fetches the member's current encoded shard map. Empty
	// request; the reply is the map itself (which carries its epoch), no
	// prefix.
	RPCMap = 0xC4
	// RPCReplicate is the primary→backup replication forward: an FRP2
	// frame (see wire.go) applied with guarded take-the-max semantics. It
	// is the only RPC that writes entries into another member's store:
	// group-commit batches and the snapshot frames of a recruit's copy
	// are both FRP2.
	// The OK reply is a ReplicaAck; a backup whose map is newer than the
	// frame's epoch, or at that epoch does not replicate the shard of some
	// entry, NACKs StatusWrongShard with its encoded map, fencing deposed
	// primaries.
	RPCReplicate = 0xC5
)

// KV ops.
const (
	OpGet = 0x0
	OpPut = 0x1
)

// Reply layout: every cluster-service reply except RPCMap starts with
// the serving node's 8-byte little-endian map epoch, so routers notice
// staleness on every response, not only on NACKs.
const epochPrefixLen = 8

func appendEpoch(b []byte, epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, epoch)
}

// kvReqLen is the length of an RPCKV request: op, key, value.
const kvReqLen = 17

// EncodeKVReq builds an RPCKV request.
func EncodeKVReq(op byte, key, val uint64) []byte {
	b := make([]byte, kvReqLen)
	putKVReq(b, op, key, val)
	return b
}

func putKVReq(b []byte, op byte, key, val uint64) {
	b[0] = op
	binary.LittleEndian.PutUint64(b[1:9], key)
	binary.LittleEndian.PutUint64(b[9:17], val)
}

func decodeKVReq(b []byte) (op byte, key, val uint64, ok bool) {
	if len(b) != kvReqLen {
		return 0, 0, 0, false
	}
	return b[0], binary.LittleEndian.Uint64(b[1:9]), binary.LittleEndian.Uint64(b[9:17]), true
}
