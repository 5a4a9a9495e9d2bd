package cluster

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"flock/internal/fabric"
)

// Table-driven edges of map construction: the inputs New/NewReplicated
// must reject, and the degenerate-but-legal ones it must normalize.
func TestShardMapConstructionEdges(t *testing.T) {
	for _, tc := range []struct {
		name     string
		members  []fabric.NodeID
		shards   int
		replicas int
		wantErr  bool
		// post-condition on success:
		wantReplicas int
	}{
		{name: "empty member set", members: nil, shards: 8, wantErr: true},
		{name: "zero shards", members: []fabric.NodeID{1}, shards: 0, wantErr: true},
		{name: "duplicate member", members: []fabric.NodeID{2, 2}, shards: 8, wantErr: true},
		{name: "negative replicas", members: []fabric.NodeID{1, 2}, shards: 8, replicas: -1, wantErr: true},
		{name: "single member", members: []fabric.NodeID{7}, shards: 8,
			wantReplicas: 0},
		{name: "single member clamps replicas", members: []fabric.NodeID{7}, shards: 8, replicas: 3,
			wantReplicas: 0},
		{name: "replicas clamp to members-1", members: []fabric.NodeID{1, 2, 3}, shards: 8, replicas: 9,
			wantReplicas: 2},
		{name: "replicated pair", members: []fabric.NodeID{1, 2}, shards: 4, replicas: 1,
			wantReplicas: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewReplicated(tc.members, tc.shards, 4, tc.replicas)
			if tc.wantErr {
				if err == nil {
					t.Fatal("bad input accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if m.Replicas != tc.wantReplicas {
				t.Fatalf("Replicas = %d, want %d", m.Replicas, tc.wantReplicas)
			}
			if len(m.Backups) != m.Shards {
				t.Fatalf("Backups has %d entries for %d shards", len(m.Backups), m.Shards)
			}
			for s := 0; s < m.Shards; s++ {
				bs := m.BackupsOf(s)
				if len(bs) != tc.wantReplicas {
					t.Fatalf("shard %d has %d backups, want %d", s, len(bs), tc.wantReplicas)
				}
				rs := m.ReplicaSet(s)
				if rs[0] != m.Owner(s) {
					t.Fatalf("shard %d replica set %v does not lead with its primary", s, rs)
				}
				seen := map[fabric.NodeID]bool{}
				for _, id := range rs {
					if seen[id] {
						t.Fatalf("shard %d replica set %v repeats member %d", s, rs, id)
					}
					seen[id] = true
				}
			}
			// Round-trip: replicated or not, a map decodes back to itself.
			got, err := DecodeShardMap(m.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
			}
		})
	}
}

// A single-member map routes everything to that member, and a failover
// of the only member has nobody to promote or reroute to: every shard
// stays dark rather than silently pointing at a node with no data.
func TestShardMapSingleMemberFailover(t *testing.T) {
	m, err := New([]fabric.NodeID{5}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < m.Shards; s++ {
		if m.Owner(s) != 5 {
			t.Fatalf("shard %d owned by %d on a one-member map", s, m.Owner(s))
		}
	}
	next, promoted, rerouted := m.WithFailover(5, nil)
	if promoted != 0 || rerouted != 0 {
		t.Fatalf("failover of the only member: promoted=%d rerouted=%d", promoted, rerouted)
	}
	if next.Epoch != m.Epoch+1 {
		t.Fatalf("failover did not bump the epoch: %d -> %d", m.Epoch, next.Epoch)
	}
	for s := 0; s < next.Shards; s++ {
		if next.Owner(s) != 5 {
			t.Fatalf("shard %d reassigned to %d with no live members", s, next.Owner(s))
		}
	}
}

// Lookup semantics through a move: while the target is only recruited
// the source still owns the shard (the NACK authority) and the target
// counts as a backup, the handoff flips ownership in one epoch, and a
// promoted backup leaves the backup set the instant it becomes primary.
func TestShardMapRecruitHandoffLookup(t *testing.T) {
	m, err := NewReplicated([]fabric.NodeID{0, 1, 2}, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	shard := 0
	from := m.Owner(shard)
	var to fabric.NodeID = -1
	for _, id := range m.Members {
		if !m.IsReplica(shard, id) {
			to = id
			break
		}
	}
	if to < 0 {
		t.Fatal("no third member outside the replica set")
	}
	p, err := m.WithBackup(shard, to)
	if err != nil {
		t.Fatal(err)
	}
	if p.Owner(shard) != from {
		t.Fatalf("recruiting the target moved ownership early: %d", p.Owner(shard))
	}
	if bs := p.BackupsOf(shard); len(bs) != 2 || bs[1] != to {
		t.Fatalf("recruit not appended last: %v", bs)
	}
	h := p.WithHandoff(shard, to)
	if h.Owner(shard) != to || !reflect.DeepEqual(h.BackupsOf(shard), m.BackupsOf(shard)) {
		t.Fatalf("handoff: owner=%d backups=%v, want owner %d over the standing backups %v",
			h.Owner(shard), h.BackupsOf(shard), to, m.BackupsOf(shard))
	}
	// Handoff to one of the shard's own backups: the new primary must
	// leave the backup set (a member appears at most once in a replica
	// set), shrinking it by one until Repair recruits a replacement.
	backup := m.BackupsOf(shard)[0]
	hb := m.WithHandoff(shard, backup)
	if hb.Owner(shard) != backup || hb.IsBackup(shard, backup) {
		t.Fatalf("promoted backup still in backup set: owner=%d backups=%v",
			hb.Owner(shard), hb.BackupsOf(shard))
	}
	if len(hb.BackupsOf(shard)) != len(m.BackupsOf(shard))-1 {
		t.Fatalf("backup set did not shrink: %v -> %v", m.BackupsOf(shard), hb.BackupsOf(shard))
	}
}

// Replicas is the configured R whatever happens to one shard's replica
// set: recruiting into an unreplicated map must not make it a replicated
// one (Repair would then recruit for every other shard), a recruit on top
// of a full set is one backup more than R, and dropping it again restores
// the set. A dead primary is succeeded by a backup that stood before the
// recruit, which is appended last.
func TestRecruitKeepsConfiguredReplicas(t *testing.T) {
	for _, replicas := range []int{0, 1} {
		m, err := NewReplicated([]fabric.NodeID{0, 1, 2, 3}, 8, 4, replicas)
		if err != nil {
			t.Fatal(err)
		}
		shard := 2
		to := m.ReplacementBackup(shard, m.Members)
		p, err := m.WithBackup(shard, to)
		if err != nil {
			t.Fatal(err)
		}
		if p.Replicas != replicas {
			t.Fatalf("R=%d: WithBackup rewrote Replicas to %d", replicas, p.Replicas)
		}
		if got := len(p.BackupsOf(shard)); got != replicas+1 {
			t.Fatalf("R=%d: recruited shard has %d backups, want %d", replicas, got, replicas+1)
		}
		for s := 0; s < p.Shards; s++ {
			if s != shard && len(p.BackupsOf(s)) != p.Replicas {
				t.Fatalf("R=%d: shard %d reads as short of backups after a recruit elsewhere", replicas, s)
			}
		}
		got, err := DecodeShardMap(p.Encode())
		if err != nil {
			t.Fatalf("R=%d: map with a recruit rejected: %v", replicas, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("R=%d: roundtrip mismatch:\n got %+v\nwant %+v", replicas, got, p)
		}
		if replicas > 0 {
			next, promoted, _ := p.WithFailover(p.Owner(shard), p.Members)
			if promoted == 0 || next.Owner(shard) != m.BackupsOf(shard)[0] {
				t.Fatalf("failover promoted %d; want the standing backup %d, not the recruit %d",
					next.Owner(shard), m.BackupsOf(shard)[0], to)
			}
		}
		back := p.WithoutBackup(shard, to)
		if back.Epoch != p.Epoch+1 || back.Replicas != replicas ||
			!reflect.DeepEqual(back.Backups, m.Backups) || !reflect.DeepEqual(back.Table, m.Table) {
			t.Fatalf("R=%d: WithoutBackup did not restore the placement: %+v", replicas, back)
		}
	}
}

// The decoder's bound on a replica set: at most members − 1 backups,
// distinct, drawn from the members, never the primary — and not tied to
// the configured R, which a move exceeds by one.
func TestDecodeBackupSetBounds(t *testing.T) {
	m, err := NewReplicated([]fabric.NodeID{0, 1, 2}, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := m.Encode()
	// Layout for 3 members, 2 shards: header 24, members 24, table 16,
	// replicas u32 at 64, shard 0's count at 68 and its backup at 72.
	const countAt, backupAt = 68, 72
	if good[countAt] != 1 {
		t.Fatalf("layout drifted: shard 0 backup count byte = %d", good[countAt])
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	other := func(not ...fabric.NodeID) byte {
		for _, id := range m.Members {
			taken := false
			for _, n := range not {
				taken = taken || n == id
			}
			if !taken {
				return byte(id)
			}
		}
		panic("no member left")
	}
	primary, backup := m.Owner(0), m.BackupsOf(0)[0]
	third := other(primary, backup)
	grow := func(b []byte, ids ...byte) []byte {
		// Give shard 0 the backup set ids, keeping the rest of the frame.
		out := append([]byte(nil), b[:countAt]...)
		out = append(out, byte(len(ids)), 0, 0, 0)
		for _, id := range ids {
			out = append(out, id, 0, 0, 0, 0, 0, 0, 0)
		}
		return append(out, b[backupAt+8:]...)
	}
	if _, err := DecodeShardMap(grow(good, byte(backup), third)); err != nil {
		t.Fatalf("two backups on an R=1 map (a move in progress) rejected: %v", err)
	}
	for name, b := range map[string][]byte{
		"as many backups as members": grow(good, byte(backup), third, byte(primary)),
		"backup is the primary":      mutate(func(b []byte) []byte { b[backupAt] = byte(primary); return b }),
		"backup not a member":        mutate(func(b []byte) []byte { b[backupAt] = 9; return b }),
		"duplicate backup":           grow(good, byte(backup), byte(backup)),
		"count past the frame":       mutate(func(b []byte) []byte { b[countAt] = 2; return b }),
	} {
		if _, err := DecodeShardMap(b); !errors.Is(err, ErrBadMap) {
			t.Fatalf("%s: err = %v, want ErrBadMap", name, err)
		}
	}
}

// Duplicate ring hashes: equal hash points tie-break by owner ID, so
// the ring order — and every successor walk over it — is deterministic
// in the candidate set, not the insertion order; and ringSuccessors
// returns distinct owners even when one owner's vnodes are adjacent.
func TestRingDuplicateHashes(t *testing.T) {
	ring := []ringPoint{
		{hash: 10, owner: 3},
		{hash: 10, owner: 1}, // duplicate hash, lower owner: sorts first
		{hash: 20, owner: 1},
		{hash: 20, owner: 2},
		{hash: 30, owner: 2},
	}
	// buildRing's comparator, applied by hand: re-sort and check the tie.
	sorted := buildRingOrder(ring)
	if sorted[0].owner != 1 || sorted[1].owner != 3 {
		t.Fatalf("equal hashes not tie-broken by owner: %+v", sorted[:2])
	}
	succ := ringSuccessors(sorted, 0, 3)
	seen := map[fabric.NodeID]bool{}
	for _, id := range succ {
		if seen[id] {
			t.Fatalf("ringSuccessors repeated owner %d: %v", id, succ)
		}
		seen[id] = true
	}
	if len(succ) != 3 {
		t.Fatalf("3 distinct owners on the ring, successors = %v", succ)
	}
	// Asking for more distinct owners than exist returns them all.
	if got := ringSuccessors(sorted, 0, 10); len(got) != 3 {
		t.Fatalf("over-asking returned %v", got)
	}
	// buildRing itself is order-independent in its candidate argument.
	a := buildRing([]fabric.NodeID{0, 1, 2}, 8)
	b := buildRing([]fabric.NodeID{2, 0, 1}, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("buildRing depends on candidate order")
	}
}

// buildRingOrder applies buildRing's sort to a hand-crafted ring.
func buildRingOrder(points []ringPoint) []ringPoint {
	ring := append([]ringPoint(nil), points...)
	// Same comparator as buildRing: hash, then owner.
	for i := 1; i < len(ring); i++ {
		for j := i; j > 0; j-- {
			a, b := ring[j-1], ring[j]
			if a.hash < b.hash || (a.hash == b.hash && a.owner < b.owner) {
				break
			}
			ring[j-1], ring[j] = b, a
		}
	}
	return ring
}

// An epoch-regressed map decodes fine — the wire format does not police
// epochs — but every install point refuses it: Router.Install,
// Service.InstallMap, and the coordinator's publish discipline all live
// on newer-epoch-wins. This is the error behavior a WrongShard NACK
// carrying a stale map (a slow deposed node) relies on.
func TestEpochRegressedMapRefused(t *testing.T) {
	old, err := New([]fabric.NodeID{0, 1}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	newer := old.Clone()
	newer.Epoch = old.Epoch + 3

	regressed, err := DecodeShardMap(old.Encode())
	if err != nil {
		t.Fatalf("wire layer rejected an old-epoch map: %v", err)
	}

	lc := newCluster(t, 2, 8, 0, 2)
	lc.router.Install(newer)
	if lc.router.Install(regressed) {
		t.Fatal("router installed an epoch-regressed map")
	}
	if lc.router.Map().Epoch != newer.Epoch {
		t.Fatalf("router epoch regressed to %d", lc.router.Map().Epoch)
	}
	svc := lc.services[0]
	svc.InstallMap(newer)
	if svc.InstallMap(regressed) {
		t.Fatal("service installed an epoch-regressed map")
	}
	if svc.Map().Epoch != newer.Epoch {
		t.Fatalf("service epoch regressed to %d", svc.Map().Epoch)
	}
	// Same epoch is also refused: installs need strictly newer.
	same := newer.Clone()
	if lc.router.Install(same) || svc.InstallMap(same) {
		t.Fatal("same-epoch map reinstalled")
	}
}

// Replica-set surgery edges: WithBackup rejects members already in the
// set, ReplacementBackup skips the whole replica set and reports -1
// when nobody is left, WithFailover promotes the first *live* backup.
func TestReplicaSetSurgeryEdges(t *testing.T) {
	m, err := NewReplicated([]fabric.NodeID{0, 1, 2, 3}, 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	shard := 0
	primary := m.Owner(shard)
	backups := m.BackupsOf(shard)
	if len(backups) != 2 {
		t.Fatalf("backups = %v", backups)
	}
	if _, err := m.WithBackup(shard, primary); err == nil {
		t.Fatal("WithBackup accepted the primary")
	}
	if _, err := m.WithBackup(shard, backups[0]); err == nil {
		t.Fatal("WithBackup accepted an existing backup")
	}
	if got := m.ReplacementBackup(shard, nil); got != -1 {
		t.Fatalf("ReplacementBackup over no candidates = %d", got)
	}
	if got := m.ReplacementBackup(shard, m.ReplicaSet(shard)); got != -1 {
		t.Fatalf("ReplacementBackup recruited from inside the replica set: %d", got)
	}
	if got := m.ReplacementBackup(shard, m.Members); got < 0 ||
		got == primary || m.IsBackup(shard, got) {
		t.Fatalf("ReplacementBackup = %d (primary %d, backups %v)", got, primary, backups)
	}
	// Failover with the first backup also dead: the second is promoted.
	live := []fabric.NodeID{}
	for _, id := range m.Members {
		if id != primary && id != backups[0] {
			live = append(live, id)
		}
	}
	next, _, _ := m.WithFailover(primary, live)
	if next.Owner(shard) == primary || next.Owner(shard) == backups[0] {
		t.Fatalf("promoted %d; primary %d and backup %d are dead", next.Owner(shard), primary, backups[0])
	}
	if next.IsBackup(shard, primary) {
		t.Fatal("dead primary still in a backup set")
	}
}

// ErrBadReplica is the replication frame's reject error, distinct from
// the map's ErrBadMap so callers can tell a corrupt forward from a
// corrupt map payload. A well-formed frame of the earlier one-shard
// layout ('FRP1': magic, epoch, shard, n, entries) is rejected by its
// magic, whatever its length.
func TestReplicaWireErrorsDistinct(t *testing.T) {
	frp1 := []byte("FRP1")
	frp1 = binary.LittleEndian.AppendUint64(frp1, 7) // epoch
	frp1 = binary.LittleEndian.AppendUint32(frp1, 3) // shard
	frp1 = binary.LittleEndian.AppendUint32(frp1, 1) // n
	frp1 = binary.LittleEndian.AppendUint64(frp1, 0xDEAD)
	frp1 = binary.LittleEndian.AppendUint64(frp1, 0xBEEF)
	for name, b := range map[string][]byte{
		"short forward": {1, 2, 3},
		"FRP1 frame":    frp1,
		"FRP1 header":   frp1[:ReplicaForwardSize(0)],
	} {
		if _, err := DecodeReplicaForward(b); !errors.Is(err, ErrBadReplica) {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := DecodeReplicaForward(frp1); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("FRP1 frame rejected for %v, want its magic", err)
	}
	if _, _, err := DecodeReplicaAck([]byte{1}); !errors.Is(err, ErrBadReplica) {
		t.Fatalf("short ack: %v", err)
	}
	if errors.Is(ErrBadReplica, ErrBadMap) {
		t.Fatal("ErrBadReplica aliases ErrBadMap")
	}
}
