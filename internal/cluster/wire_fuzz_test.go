package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"flock/internal/fabric"
)

// Native fuzz target for the shard-map wire format — the bytes every
// WrongShard NACK and RPCMap reply carry, which a router decodes from
// an untrusted (fault-injectable, corruptible) fabric. Seed corpus
// lives in testdata/fuzz; run with
//
//	go test -fuzz=FuzzDecodeShardMap -fuzztime=30s ./internal/cluster
//
// Properties: the decoder never panics on arbitrary bytes, a
// successful decode re-encodes to exactly the input (canonical form),
// and encode→decode is the identity for every well-formed map.

func fuzzSeedMap() *ShardMap {
	m, err := New([]fabric.NodeID{0, 1, 2}, 8, 4)
	if err != nil {
		panic(err)
	}
	return m
}

// fuzzSeedRecruitMap is a replicated map mid-move: every shard has its
// one configured backup and shard 5 carries a recruit on top.
func fuzzSeedRecruitMap() *ShardMap {
	m, err := NewReplicated([]fabric.NodeID{0, 1, 2}, 8, 4, 1)
	if err != nil {
		panic(err)
	}
	m, err = m.WithBackup(5, m.ReplacementBackup(5, m.Members))
	if err != nil {
		panic(err)
	}
	return m
}

func FuzzDecodeShardMap(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzSeedMap().Encode())
	f.Add(fuzzSeedRecruitMap().Encode())
	// Truncated and bit-flipped variants of a valid encoding.
	good := fuzzSeedRecruitMap().Encode()
	f.Add(good[:len(good)-5])
	for _, i := range []int{0, 8, 20, 30, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeShardMap(data) // must not panic, whatever the bytes
		if err != nil {
			return
		}
		// A decoded map is structurally routable...
		if m.Shards != len(m.Table) || m.Shards != len(m.Backups) {
			t.Fatalf("accepted %d shards with %d table entries and %d backup sets", m.Shards, len(m.Table), len(m.Backups))
		}
		for k := uint64(0); k < 32; k++ {
			s := m.ShardOf(k)
			if s < 0 || s >= m.Shards {
				t.Fatalf("ShardOf out of range: %d", s)
			}
			if m.IsBackup(s, m.Owner(s)) {
				t.Fatalf("shard %d: primary %d is also a backup", s, m.Owner(s))
			}
		}
		// ...and the encoding is canonical: decode→encode gives the bytes
		// back.
		if !bytes.Equal(m.Encode(), data) {
			t.Fatalf("decode/encode not canonical for %d bytes", len(data))
		}
	})
}

func FuzzShardMapRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(8), uint8(4), uint8(0))
	f.Add(uint64(1<<40), uint8(5), uint8(32), uint8(16), uint8(3))
	f.Add(^uint64(0), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, epoch uint64, nMembers, shards, vnodes, moving uint8) {
		if nMembers == 0 || shards == 0 || vnodes == 0 {
			return
		}
		members := make([]fabric.NodeID, nMembers)
		for i := range members {
			members[i] = fabric.NodeID(i * 3)
		}
		m, err := NewReplicated(members, int(shards), int(vnodes), int(moving)%3)
		if err != nil {
			t.Fatal(err)
		}
		// The first `moving` shards are mid-move: one recruit each on top
		// of their configured backups, where a member is left to recruit.
		for s := 0; s < int(moving) && s < m.Shards; s++ {
			if to := m.ReplacementBackup(s, members); to >= 0 {
				if m, err = m.WithBackup(s, to); err != nil {
					t.Fatal(err)
				}
			}
		}
		m.Epoch = epoch // pin the epoch regardless of recruit bumps
		got, err := DecodeShardMap(m.Encode())
		if err != nil {
			t.Fatalf("valid map rejected: %v", err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
		}
	})
}

// --- replication frames ---
//
// The FRP2 forward and its fixed-size ack cross the same untrusted
// fabric as the shard map, between nodes that may disagree about the
// epoch; the decoder is the first thing a backup runs on every
// replicated write. Same properties as the map: never panic, canonical
// re-encode, encode→decode identity. A frame names no shard — the backup
// files each entry under its own map's ShardOf — so the seeds include
// frames whose entries belong to one shard of fuzzSeedMap and frames whose
// entries span several.

func fuzzSeedForward() ReplicaForward {
	keys := shardKeys(fuzzSeedMap(), 3, 2)
	return ReplicaForward{
		Epoch: 7,
		Entries: []ReplicaEntry{
			{Key: keys[0], Val: 1},
			{Key: keys[1], Val: 0xFFFFFFFFFFFFFFFF},
		},
	}
}

// fuzzSeedMultiShardForward is what a primary of several shards that share
// a backup set sends: one frame, entries of four shards interleaved.
func fuzzSeedMultiShardForward() ReplicaForward {
	m := fuzzSeedMap()
	fw := ReplicaForward{Epoch: 11}
	for i := 0; i < 2; i++ {
		for shard := 0; shard < 4; shard++ {
			k := shardKeys(m, shard, 2)[i]
			fw.Entries = append(fw.Entries, ReplicaEntry{Key: k, Val: k + 1})
		}
	}
	return fw
}

// fuzzSeedBatchForward is the shape group commit actually puts on the
// wire: one frame carrying a full coalesced flush, not the single- and
// two-entry frames the pre-batching protocol sent. Seeding it keeps the
// fuzzer anchored on the multi-entry length math — count field vs.
// trailing entry bytes — where a decoder bug would corrupt a whole batch
// of acked writes at once.
func fuzzSeedBatchForward() ReplicaForward {
	fw := ReplicaForward{Epoch: 9}
	for i := 0; i < 8; i++ {
		k := uint64(i+1) * 0x0101010101010101
		fw.Entries = append(fw.Entries, ReplicaEntry{Key: k, Val: ^k})
	}
	return fw
}

func FuzzDecodeReplicaForward(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendReplicaForward(nil, fuzzSeedForward()))
	f.Add(AppendReplicaForward(nil, ReplicaForward{Epoch: 1}))
	batch := AppendReplicaForward(nil, fuzzSeedBatchForward())
	f.Add(batch)
	f.Add(batch[:len(batch)-9]) // batch truncated mid-entry: count promises more than arrives
	multi := AppendReplicaForward(nil, fuzzSeedMultiShardForward())
	f.Add(multi)
	f.Add(multi[:len(multi)-wireEntryLen-3]) // multi-shard frame truncated mid-entry
	good := AppendReplicaForward(nil, fuzzSeedForward())
	f.Add(good[:len(good)-7]) // truncated mid-entry
	for _, i := range []int{0, 4, 12, 16, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fw, err := DecodeReplicaForward(data) // must not panic
		if err != nil {
			return
		}
		if len(fw.Entries) > maxWireReplEntries {
			t.Fatalf("accepted out-of-bounds frame: n=%d", len(fw.Entries))
		}
		if !bytes.Equal(AppendReplicaForward(nil, fw), data) {
			t.Fatalf("decode/encode not canonical for %d bytes", len(data))
		}
	})
}

// FuzzReplicaForwardRoundTrip builds n entries drawn from `spread` shards of
// fuzzSeedMap (entry i from shard i mod spread), and requires the frame to
// round-trip exactly, every entry to land in the shard it was drawn from, and
// the frame cut anywhere inside its last entry to be rejected.
func FuzzReplicaForwardRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0), uint64(42))
	f.Add(uint64(1<<50), uint8(4), uint8(9), uint64(0))
	f.Add(^uint64(0), uint8(8), uint8(200), ^uint64(0))
	f.Add(uint64(9), uint8(1), uint8(8), uint64(0x0101010101010101))  // a coalesced one-shard flush
	f.Add(uint64(11), uint8(4), uint8(8), uint64(0x0101010101010101)) // one flush of four shards
	m := fuzzSeedMap()
	f.Fuzz(func(t *testing.T, epoch uint64, spread, n uint8, kvSeed uint64) {
		shards := int(spread)%m.Shards + 1
		fw := ReplicaForward{Epoch: epoch}
		for i := 0; i < int(n); i++ {
			// Deterministic in the inputs — no RNG, so failures replay.
			k := kvSeed ^ uint64(i)*0x9E3779B97F4A7C15
			for m.ShardOf(k) != i%shards {
				k++
			}
			fw.Entries = append(fw.Entries, ReplicaEntry{Key: k, Val: k >> 3})
		}
		b := AppendReplicaForward(nil, fw)
		if len(b) != ReplicaForwardSize(len(fw.Entries)) {
			t.Fatalf("ReplicaForwardSize(%d) = %d, encoded %d",
				len(fw.Entries), ReplicaForwardSize(len(fw.Entries)), len(b))
		}
		got, err := DecodeReplicaForward(b)
		if err != nil {
			t.Fatalf("valid forward rejected: %v", err)
		}
		if got.Epoch != fw.Epoch || !reflect.DeepEqual(got.Entries, fw.Entries) {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, fw)
		}
		for i, e := range got.Entries {
			if s := m.ShardOf(e.Key); s != i%shards {
				t.Fatalf("entry %d files under shard %d, drawn from shard %d", i, s, i%shards)
			}
		}
		if n > 0 {
			for cut := 1; cut < wireEntryLen; cut++ {
				if _, err := DecodeReplicaForward(b[:len(b)-cut]); !errors.Is(err, ErrBadReplica) {
					t.Fatalf("frame cut %d bytes into its last entry: err = %v", cut, err)
				}
			}
		}

		// The ack rides along: fixed length, exact round trip, and every
		// non-ack length is rejected.
		applied := int(n)
		ack := EncodeReplicaAck(epoch, applied)
		e2, a2, err := DecodeReplicaAck(ack)
		if err != nil || e2 != epoch || a2 != applied {
			t.Fatalf("ack roundtrip: (%d,%d,%v)", e2, a2, err)
		}
		if _, _, err := DecodeReplicaAck(ack[:len(ack)-1]); err == nil {
			t.Fatal("truncated ack accepted")
		}
		if _, _, err := DecodeReplicaAck(append(ack, 0)); err == nil {
			t.Fatal("padded ack accepted")
		}
	})
}

// TestFuzzCorpusFresh regenerates the checked-in seed corpus whenever
// the wire layout changes, and fails the run that found it stale so the
// refresh gets committed. The files are deterministic, so a clean tree
// stays clean.
func TestFuzzCorpusFresh(t *testing.T) {
	entries := map[string][]byte{
		"testdata/fuzz/FuzzDecodeShardMap/seed-map": corpusBytes(
			fuzzSeedMap().Encode()),
		"testdata/fuzz/FuzzDecodeShardMap/seed-recruit": corpusBytes(
			fuzzSeedRecruitMap().Encode()),
		"testdata/fuzz/FuzzDecodeShardMap/seed-empty": corpusBytes(nil),
		"testdata/fuzz/FuzzShardMapRoundTrip/seed-basic": []byte(
			"go test fuzz v1\nuint64(1)\nbyte(2)\nbyte(8)\nbyte(4)\nbyte(0)\n"),
		"testdata/fuzz/FuzzShardMapRoundTrip/seed-pending": []byte(
			"go test fuzz v1\nuint64(1099511627776)\nbyte(5)\nbyte(32)\nbyte(16)\nbyte(3)\n"),
		"testdata/fuzz/FuzzDecodeReplicaForward/seed-basic": corpusBytes(
			AppendReplicaForward(nil, fuzzSeedForward())),
		"testdata/fuzz/FuzzDecodeReplicaForward/seed-empty-entries": corpusBytes(
			AppendReplicaForward(nil, ReplicaForward{Epoch: 1})),
		"testdata/fuzz/FuzzDecodeReplicaForward/seed-garbage": corpusBytes(nil),
		"testdata/fuzz/FuzzDecodeReplicaForward/seed-batch": corpusBytes(
			AppendReplicaForward(nil, fuzzSeedBatchForward())),
		"testdata/fuzz/FuzzDecodeReplicaForward/seed-multi-shard": corpusBytes(
			AppendReplicaForward(nil, fuzzSeedMultiShardForward())),
		"testdata/fuzz/FuzzReplicaForwardRoundTrip/seed-basic": []byte(
			"go test fuzz v1\nuint64(1)\nbyte(1)\nbyte(0)\nuint64(42)\n"),
		"testdata/fuzz/FuzzReplicaForwardRoundTrip/seed-deep": []byte(
			"go test fuzz v1\nuint64(1125899906842624)\nbyte(4)\nbyte(9)\nuint64(0)\n"),
		"testdata/fuzz/FuzzReplicaForwardRoundTrip/seed-batch": []byte(
			"go test fuzz v1\nuint64(9)\nbyte(1)\nbyte(8)\nuint64(72340172838076673)\n"),
		"testdata/fuzz/FuzzReplicaForwardRoundTrip/seed-multi-shard": []byte(
			"go test fuzz v1\nuint64(11)\nbyte(4)\nbyte(8)\nuint64(72340172838076673)\n"),
	}
	for path, want := range entries {
		got, err := os.ReadFile(path)
		if err == nil && bytes.Equal(got, want) {
			continue
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("seed corpus %s was stale; regenerated — commit the refresh", path)
	}
}

// TestOldMapEncodingsRejected: FuzzDecodeShardMap's seed-basic and
// seed-pending are frames of the previous layout ('FSM1', the second with
// a pending-migration list). They stay in the corpus byte for byte as
// negative seeds, so TestFuzzCorpusFresh does not regenerate them; what
// they must do now is fail to decode.
func TestOldMapEncodingsRejected(t *testing.T) {
	for _, name := range []string{"seed-basic", "seed-pending"} {
		raw, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzDecodeShardMap", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a []byte corpus entry", name)
		}
		frame, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(frame, "FSM1") {
			t.Fatalf("%s no longer holds an FSM1 frame", name)
		}
		if _, err := DecodeShardMap([]byte(frame)); !errors.Is(err, ErrBadMap) {
			t.Fatalf("%s: old-layout frame decoded: err = %v", name, err)
		}
	}
}

// corpusBytes renders one []byte fuzz-corpus entry in the go test
// corpus file format.
func corpusBytes(b []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b))
}
