package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"flock/internal/fabric"
)

func mustMap(t *testing.T, members []fabric.NodeID, shards, vnodes int) *ShardMap {
	t.Helper()
	m, err := New(members, shards, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 8, 0); err == nil {
		t.Fatal("empty members accepted")
	}
	if _, err := New([]fabric.NodeID{1}, 0, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := New([]fabric.NodeID{1, 1}, 8, 0); err == nil {
		t.Fatal("duplicate member accepted")
	}
	m := mustMap(t, []fabric.NodeID{3, 1, 2}, 8, 0)
	if !reflect.DeepEqual(m.Members, []fabric.NodeID{1, 2, 3}) {
		t.Fatalf("members not sorted: %v", m.Members)
	}
	if m.Epoch != 1 || m.VNodes != DefaultVNodes {
		t.Fatalf("epoch=%d vnodes=%d", m.Epoch, m.VNodes)
	}
}

func TestPlacementCoversAndBalances(t *testing.T) {
	members := []fabric.NodeID{0, 1, 2, 3}
	m := mustMap(t, members, 64, 0)
	counts := map[fabric.NodeID]int{}
	for s := 0; s < m.Shards; s++ {
		counts[m.Owner(s)]++
	}
	for _, id := range members {
		if counts[id] == 0 {
			t.Fatalf("member %d owns no shards: %v", id, counts)
		}
	}
	// ShardOf stays in range and is deterministic.
	for k := uint64(0); k < 1000; k++ {
		s := m.ShardOf(k)
		if s < 0 || s >= m.Shards {
			t.Fatalf("ShardOf(%d) = %d out of range", k, s)
		}
		if s != m.ShardOf(k) {
			t.Fatal("ShardOf not deterministic")
		}
	}
}

func TestDesiredTableDeterministicAndStable(t *testing.T) {
	m := mustMap(t, []fabric.NodeID{0, 1, 2}, 32, 8)
	a := m.DesiredTable(m.Members)
	b := m.DesiredTable(m.Members)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("DesiredTable not deterministic")
	}
	// Removing one member must not move shards between the survivors
	// (consistent hashing's point).
	down := m.DesiredTable([]fabric.NodeID{0, 1})
	for s := range a {
		if a[s] != 2 && down[s] != a[s] {
			t.Fatalf("shard %d moved %d -> %d though its owner stayed live", s, a[s], down[s])
		}
	}
}

func TestPlanRebalance(t *testing.T) {
	m := mustMap(t, []fabric.NodeID{0, 1, 2}, 32, 8)
	if plan := m.PlanRebalance(m.Members); len(plan) != 0 {
		t.Fatalf("fresh map wants %d moves", len(plan))
	}
	plan := m.PlanRebalance([]fabric.NodeID{0, 1})
	if len(plan) == 0 {
		t.Fatal("no moves planned off member 2")
	}
	for _, mig := range plan {
		if mig.From != 2 {
			t.Fatalf("unexpected move %+v", mig)
		}
		if mig.To == 2 {
			t.Fatalf("move targets the removed member: %+v", mig)
		}
	}
	// The plan is a diff of Table alone: a shard whose target is already
	// recruited stays planned until its handoff, then drops out.
	recruited, err := m.WithBackup(plan[0].Shard, plan[0].To)
	if err != nil {
		t.Fatal(err)
	}
	if again := recruited.PlanRebalance([]fabric.NodeID{0, 1}); !reflect.DeepEqual(again, plan) {
		t.Fatalf("plan changed on recruit:\n got %+v\nwant %+v", again, plan)
	}
	moved := recruited.WithHandoff(plan[0].Shard, plan[0].To)
	if again := moved.PlanRebalance([]fabric.NodeID{0, 1}); !reflect.DeepEqual(again, plan[1:]) {
		t.Fatalf("plan after the first handoff:\n got %+v\nwant %+v", again, plan[1:])
	}
}

// A move is two epochs: the recruit epoch adds the target to the
// shard's backup set and leaves ownership alone, the handoff epoch flips
// ownership and takes the new primary out of the backup set again.
func TestRecruitAndHandoffEpochs(t *testing.T) {
	m := mustMap(t, []fabric.NodeID{0, 1}, 8, 4)
	var shard int
	for s := 0; s < m.Shards; s++ {
		if m.Owner(s) == 0 {
			shard = s
			break
		}
	}
	p, err := m.WithBackup(shard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch != m.Epoch+1 || !p.IsBackup(shard, 1) || p.Owner(shard) != 0 {
		t.Fatalf("recruit map wrong: epoch=%d backups=%v owner=%d", p.Epoch, p.BackupsOf(shard), p.Owner(shard))
	}
	h := p.WithHandoff(shard, 1)
	if h.Epoch != p.Epoch+1 || len(h.BackupsOf(shard)) != 0 || h.Owner(shard) != 1 {
		t.Fatalf("handoff map wrong: epoch=%d backups=%v owner=%d", h.Epoch, h.BackupsOf(shard), h.Owner(shard))
	}
	// Originals untouched (immutability).
	if m.Owner(shard) != 0 || len(m.BackupsOf(shard)) != 0 || p.Owner(shard) != 0 {
		t.Fatal("WithBackup/WithHandoff mutated the source map")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	m := mustMap(t, []fabric.NodeID{0, 2, 5}, 16, 4)
	// A move in progress: an unreplicated map carrying one recruit.
	to := fabric.NodeID(5)
	if m.Owner(3) == to {
		to = 2
	}
	m, err := m.WithBackup(3, to)
	if err != nil {
		t.Fatal(err)
	}
	b := m.Encode()
	if len(b) != m.EncodedSize() {
		t.Fatalf("EncodedSize %d != len %d", m.EncodedSize(), len(b))
	}
	got, err := DecodeShardMap(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
	}
	if !bytes.Equal(got.Encode(), b) {
		t.Fatal("re-encode differs (not canonical)")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	m := mustMap(t, []fabric.NodeID{0, 1}, 8, 4)
	good := m.Encode()
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte{0, 0, 0, 0}, good[4:]...),
		"FSM1 magic": append([]byte("FSM1"), good[4:]...),
		"FSM2 magic": append([]byte("FSM2"), good[4:]...),
		"truncated":  good[:len(good)-3],
		"padded":     append(append([]byte{}, good...), 0),
	}
	for name, b := range cases {
		if _, err := DecodeShardMap(b); !errors.Is(err, ErrBadMap) {
			t.Fatalf("%s: err = %v, want ErrBadMap", name, err)
		}
	}
	// Table owner outside the member set.
	bad := append([]byte{}, good...)
	bad[24+2*8] = 99 // first table entry low byte -> not a member
	if _, err := DecodeShardMap(bad); !errors.Is(err, ErrBadMap) {
		t.Fatalf("foreign owner: err = %v, want ErrBadMap", err)
	}
}
