// Package flock is a Go reproduction of FLock ("Birds of a Feather Flock
// Together: Scaling RDMA RPCs with FLock", SOSP 2021): a communication
// framework that scales RDMA RPCs over hardware reliable connections by
// sharing queue pairs among threads.
//
// FLock combines three mechanisms:
//
//   - A connection handle that multiplexes application threads over a set
//     of RC queue pairs while exposing the full RDMA surface: RPCs,
//     one-sided reads/writes, and atomics.
//   - FLock synchronization: an MCS-style thread combining queue in which
//     a transient leader coalesces concurrent threads' requests into a
//     single message posted with one doorbell.
//   - Symbiotic send-recv scheduling: the server activates/deactivates
//     QPs with a credit scheme driven by the observed coalescing degree,
//     and the client packs threads onto active QPs to minimize
//     head-of-line blocking.
//
// Because this reproduction has no RDMA hardware, nodes run over the
// software RNIC and in-process fabric in internal/rnic and
// internal/fabric. The library structure matches what a libibverbs
// backend would need.
//
// # Quickstart
//
//	net := flock.NewNetwork(flock.FabricConfig{})
//	defer net.Close()
//
//	server, _ := net.NewNode(1, flock.Options{}, 0)
//	server.RegisterHandler(1, func(req []byte) []byte {
//		return append([]byte("echo: "), req...)
//	})
//	server.Serve()
//
//	client, _ := net.NewNode(2, flock.Options{}, 0)
//	conn, _ := client.Connect(1)
//	th := conn.RegisterThread()
//	resp, _ := th.Call(1, []byte("hello"))
//	fmt.Println(string(resp.Data))
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package flock

import (
	"flock/internal/cluster"
	"flock/internal/core"
	"flock/internal/fabric"
	"flock/internal/resilience"
	"flock/internal/telemetry"
)

// Core types re-exported from the implementation package. The aliases keep
// one implementation while giving applications a stable, documented root
// import.
type (
	// Network owns the fabric and the FLock nodes on it; it stands in for
	// out-of-band bootstrap in a real deployment.
	Network = core.Network
	// Node is one FLock endpoint; it can serve handlers and open
	// connection handles concurrently.
	Node = core.Node
	// Conn is the connection handle multiplexing threads over RC QPs.
	Conn = core.Conn
	// Thread is a per-application-thread handle carrying the RPC and
	// memory APIs.
	Thread = core.Thread
	// Response is one RPC response.
	Response = core.Response
	// RemoteRegion is server memory attached for one-sided operations.
	RemoteRegion = core.RemoteRegion
	// Options configures a node; the zero value uses paper defaults.
	// Every field is one some tool, bench or example sets (DESIGN.md
	// "Configuration surface").
	Options = core.Options
	// Handler processes one RPC request and returns the response payload.
	// It must not retain req past its return: req views the request ring
	// itself, whose space goes back to the client as soon as the handlers
	// of the message it arrived in have returned and their replies are
	// flushed.
	Handler = core.Handler
	// NodeMetrics aggregates a node's activity counters.
	NodeMetrics = core.NodeMetrics
	// ThreadStat is the sender-side scheduler's per-thread input.
	ThreadStat = core.ThreadStat
	// FabricConfig configures the underlying fabric (MTU, UD loss).
	FabricConfig = fabric.Config
	// NodeID addresses a node on the fabric.
	NodeID = fabric.NodeID
	// OpError reports a failed one-sided operation.
	OpError = core.OpError
	// FaultPlan is a seeded fault-injection schedule for the fabric.
	FaultPlan = fabric.FaultPlan
	// LinkFault is one scheduled per-link (optionally per-QP) outage.
	LinkFault = fabric.LinkFault
	// FaultStats aggregates the fabric's fault-injection counters.
	FaultStats = fabric.FaultStats
	// TelemetrySnapshot is a point-in-time, JSON-encodable copy of the
	// telemetry registries (Network.TelemetrySnapshot, Node.Telemetry).
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryRegistry is a named collection of counters, gauges,
	// histograms, and the RPC-lifecycle trace ring.
	TelemetryRegistry = telemetry.Registry
	// TraceEvent is one recorded RPC-lifecycle event.
	TraceEvent = telemetry.TraceEvent
	// CallOptions is a call's plan — how many attempts, inside what budget
	// (Thread.CallOpts, CallAsync, SendBatch). The zero value is one attempt.
	CallOptions = core.CallOptions
	// Pending is an in-flight asynchronous call (Thread.CallAsync,
	// Thread.SendBatch): Wait blocks for the result, Done polls, Cancel
	// abandons.
	Pending = core.Pending
	// BatchOp is one request in a Thread.SendBatch submission.
	BatchOp = core.BatchOp
)

// Cluster-layer types re-exported from internal/cluster: versioned shard
// placement, the epoch-routing client, membership, replication, and live
// shard moves.
type (
	// ShardMap is the versioned shard→member placement (consistent
	// hashing over virtual nodes, epoch-stamped, wire-encodable).
	ShardMap = cluster.ShardMap
	// ShardMigration is one planned shard move, as ShardMap.PlanRebalance
	// lists them. A move in progress is not recorded in the map: its
	// target is one more backup of the shard until the handoff.
	ShardMigration = cluster.Migration
	// ClusterService is the member-side sharded KV: per-shard stores,
	// group-commit replication to each shard's backups, and the snapshot
	// copy that fills a recruited backup. The coordinator composes every
	// placement change — repair, move, failover — from those.
	ClusterService = cluster.Service
	// ClusterRouter is the shard-aware client: it routes by its cached
	// map and self-corrects from epoch piggybacks and WrongShard NACKs.
	ClusterRouter = cluster.Router
	// ClusterRouterThread is a single-goroutine handle on a ClusterRouter.
	ClusterRouterThread = cluster.RouterThread
	// ClusterMembership is the ping-driven failure detector
	// (alive → suspect → dead, with rejoin).
	ClusterMembership = cluster.Membership
	// ClusterCoordinator is the in-process control plane driving
	// migrations, rebalancing, route-around, and decommission.
	ClusterCoordinator = cluster.Coordinator
	// ReplTuning shapes the group-commit replication pipeline (the flush
	// entry cap); the zero value selects the default.
	ReplTuning = cluster.ReplTuning
	// ReplError is the typed failure of one replication forward,
	// carrying the backup and rejection status; it matches
	// ErrReplicaFenced / ErrReplicaNACK via errors.Is.
	ReplError = cluster.ReplError
	// MemberState is the failure detector's per-member verdict.
	MemberState = resilience.MemberState
)

// Failure-detector member states (ClusterMembership.State).
const (
	MemberLive     = resilience.MemberLive
	MemberSuspect  = resilience.MemberSuspect
	MemberDead     = resilience.MemberDead
	MemberDraining = resilience.MemberDraining
)

// Errors re-exported from the implementation.
var (
	// ErrClosed reports an operation on a closed node or connection.
	ErrClosed = core.ErrClosed
	// ErrPayloadTooLarge reports a payload above the 16 KiB a single
	// request or response may carry.
	ErrPayloadTooLarge = core.ErrPayloadTooLarge
	// ErrNotServing reports a Connect to a node that has not called Serve.
	ErrNotServing = core.ErrNotServing
	// ErrNoSuchNode reports a Connect to an unknown node ID.
	ErrNoSuchNode = core.ErrNoSuchNode
	// ErrTimeout reports an operation that missed its deadline
	// (Options.RPCTimeout, CallWithDeadline or CallOptions.Budget). The
	// outcome is unknown: the request may have executed.
	ErrTimeout = core.ErrTimeout
	// ErrQPBroken reports an operation failed by a QP entering the error
	// state; the connection recycles the QP in the background.
	ErrQPBroken = core.ErrQPBroken
	// ErrConnClosed reports an operation poisoned by connection teardown;
	// it wraps ErrClosed.
	ErrConnClosed = core.ErrConnClosed
	// ErrOverloaded reports server-side admission pushback; retry after
	// backoff (a call with CallOptions.MaxAttempts > 1 does so itself).
	ErrOverloaded = core.ErrOverloaded
	// ErrDraining reports a draining node refusing new work; it does not
	// wrap ErrClosed — retry on another node.
	ErrDraining = core.ErrDraining
	// ErrCanceled reports a Pending canceled by its owner before
	// completion; a late response is dropped as stale.
	ErrCanceled = core.ErrCanceled
	// ErrNoRoute reports a cluster call that exhausted its redirect
	// budget without converging on the shard's owner.
	ErrNoRoute = cluster.ErrNoRoute
	// ErrBadShardMap reports a malformed shard-map wire encoding.
	ErrBadShardMap = cluster.ErrBadMap
	// ErrBadReplica reports a malformed replication forward or ack frame.
	ErrBadReplica = cluster.ErrBadReplica
	// ErrReplicaFenced reports a replication batch rejected by a backup
	// holding a newer epoch (the sender installs the attached map).
	ErrReplicaFenced = cluster.ErrReplicaFenced
	// ErrReplicaNACK reports a replication batch rejected by a backup
	// for any non-fence status.
	ErrReplicaNACK = cluster.ErrReplicaNACK
)

// Response status codes.
const (
	// StatusOK means the handler ran.
	StatusOK = core.StatusOK
	// StatusNoHandler means no handler was registered for the RPC ID.
	StatusNoHandler = core.StatusNoHandler
	// StatusHandlerPanic means the handler panicked.
	StatusHandlerPanic = core.StatusHandlerPanic
	// StatusOverloaded is the admission-control pushback NACK.
	StatusOverloaded = core.StatusOverloaded
	// StatusDraining is the graceful-drain pushback NACK.
	StatusDraining = core.StatusDraining
	// StatusWrongShard is the cluster layer's routing NACK: the replier
	// does not own the key's shard, and the payload carries its (newer)
	// shard map so the caller self-corrects before retrying.
	StatusWrongShard = core.StatusWrongShard
)

// NewNetwork creates a network over a fresh in-process fabric.
func NewNetwork(cfg FabricConfig) *Network { return core.NewNetwork(cfg) }

// ParseFaultPlan parses the compact key=value fault spec accepted by
// flockload's -faults flag, e.g. "seed=7,rc-loss=0.01,flap=3".
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	return fabric.ParseFaultPlan(spec)
}

// AssignThreads exposes the sender-side scheduling policy (Algorithm 1)
// as a pure function; the benchmark models exercise it directly.
func AssignThreads(threads []ThreadStat, activeQPs int) map[uint32]int {
	return core.AssignThreads(threads, activeQPs)
}

// RedistributeQPs exposes the receiver-side QP allocation formula (§5.1)
// as a pure function.
func RedistributeQPs(util [][]float64, maxAQP int) []int {
	return core.RedistributeQPs(util, maxAQP)
}

// NewShardMap builds the epoch-1 placement of `shards` shards over the
// member set via consistent hashing with `vnodes` virtual nodes per
// member (0 → default). Members must be non-empty and deduplicated.
func NewShardMap(members []NodeID, shards, vnodes int) (*ShardMap, error) {
	return cluster.New(members, shards, vnodes)
}

// NewReplicatedShardMap is NewShardMap plus a replica factor: every
// shard gets `replicas` backups (clamped to members-1) drawn from its
// ring successors, and every acknowledged put synchronously replicates
// to all of them before the primary ACKs.
func NewReplicatedShardMap(members []NodeID, shards, vnodes, replicas int) (*ShardMap, error) {
	return cluster.NewReplicated(members, shards, vnodes, replicas)
}

// DecodeShardMap parses a shard map from its wire encoding (the payload
// of a StatusWrongShard NACK or an RPCMap reply).
func DecodeShardMap(b []byte) (*ShardMap, error) { return cluster.DecodeShardMap(b) }

// NewClusterService stands the sharded KV up on a member node. The node
// must run with Options.Workers > 0: a KV handler can block on its shard's
// lock, which the request dispatcher must never do.
func NewClusterService(node *Node, m *ShardMap, storeCap int) (*ClusterService, error) {
	return cluster.NewService(node, m, storeCap)
}

// NewClusterRouter builds a shard-aware client router on node seeded
// with the given map; it self-corrects as epochs advance.
func NewClusterRouter(node *Node, initial *ShardMap) *ClusterRouter {
	return cluster.NewRouter(node, initial)
}

// NewClusterMembership builds the ping-driven failure detector probing
// the router's member set over the router's connections.
func NewClusterMembership(r *ClusterRouter) *ClusterMembership {
	return cluster.NewMembership(r)
}

// NewClusterCoordinator builds the in-process control plane over the
// initial map; register member services and routers on it.
func NewClusterCoordinator(initial *ShardMap) *ClusterCoordinator {
	return cluster.NewCoordinator(initial)
}
