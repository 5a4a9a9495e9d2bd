package loadgen

import (
	"flock/internal/cluster"
	"flock/internal/core"
	"flock/internal/fabric"
)

// Echo is the handler of every echo experiment.
func Echo(req []byte) []byte { return req }

// Star is the echo topology: one serving node (ID 0) and client nodes
// (IDs 1..n), each holding one connection handle to the server.
type Star struct {
	Net     *core.Network
	Server  *core.Node
	Clients []*core.Node
	Conns   []*core.Conn // Conns[i] is Clients[i]'s handle
}

// NewStar builds a star with h serving RPC 1. nicCache is the NIC
// connection-context cache size of every node (0 = unconstrained).
func NewStar(server, client core.Options, clients, nicCache int, h core.Handler) (s *Star, err error) {
	s = &Star{Net: core.NewNetwork(fabric.Config{})}
	defer closeOnError(s, &err)
	if s.Server, err = s.Net.NewNode(0, server, nicCache); err != nil {
		return nil, err
	}
	s.Server.RegisterHandler(1, h)
	if err = s.Server.Serve(); err != nil {
		return nil, err
	}
	for c := 0; c < clients; c++ {
		node, err := s.Net.NewNode(fabric.NodeID(c+1), client, nicCache)
		if err != nil {
			return nil, err
		}
		conn, err := node.Connect(0)
		if err != nil {
			return nil, err
		}
		s.Clients = append(s.Clients, node)
		s.Conns = append(s.Conns, conn)
	}
	return s, nil
}

// closeOnError tears down a half-built topology when its builder fails.
func closeOnError(t interface{ Close() }, err *error) {
	if *err != nil {
		t.Close()
	}
}

// Close shuts the network down.
func (s *Star) Close() { s.Net.Close() }

// KV is the sharded-KV topology: member nodes (IDs 0..n-1), each running a
// cluster.Service, and one client node (ID 100) with a Router over them.
type KV struct {
	Net      *core.Network
	Map      *cluster.ShardMap // the initial placement
	Members  []*core.Node
	Services []*cluster.Service // Services[i] runs on Members[i]
	Client   *core.Node
	Router   *cluster.Router
}

// NewKV builds a cluster of `members` nodes over `shards` shards with
// `replicas` backups per shard. Service knobs (ServiceDelay, Repl) are the
// caller's to set on Services before traffic.
func NewKV(members, shards, replicas int, member, client core.Options) (k *KV, err error) {
	k = &KV{Net: core.NewNetwork(fabric.Config{})}
	defer closeOnError(k, &err)
	ids := make([]fabric.NodeID, members)
	for i := range ids {
		ids[i] = fabric.NodeID(i)
	}
	if k.Map, err = cluster.NewReplicated(ids, shards, 0, replicas); err != nil {
		return nil, err
	}
	for _, id := range ids {
		node, err := k.Net.NewNode(id, member, 0)
		if err != nil {
			return nil, err
		}
		svc, err := cluster.NewService(node, k.Map, 0)
		if err != nil {
			return nil, err
		}
		if err := node.Serve(); err != nil {
			return nil, err
		}
		k.Members = append(k.Members, node)
		k.Services = append(k.Services, svc)
	}
	if k.Client, err = k.Net.NewNode(100, client, 0); err != nil {
		return nil, err
	}
	k.Router = cluster.NewRouter(k.Client, k.Map)
	return k, nil
}

// Close stops the router and every service — a service's replication
// forwarders are its own goroutines and outlive Network.Close — and then
// the network.
func (k *KV) Close() {
	if k.Router != nil {
		k.Router.Close()
	}
	for _, svc := range k.Services {
		svc.Close()
	}
	k.Net.Close()
}
