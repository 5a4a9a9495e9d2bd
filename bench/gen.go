package main

import "flock/internal/stats"

// The generator turns (-seed, caller) into the inputs the program sees:
// the op sequence, the key each op touches and the payload bytes. Nothing
// else of the seed reaches the system under test.

type opKind uint8

const (
	opEcho opKind = iota
	opRead
	opWrite
	opFetchAdd
	opPut
	opGet
)

// op is one generated operation. key indexes the workload's key table
// (KV workloads) and is 0 otherwise.
type op struct {
	kind opKind
	key  int
}

// opMix is a workload's operation mix: kinds with their shares, which sum
// to 1.
type opMix []struct {
	kind  opKind
	share float64
}

var (
	mixEcho     = opMix{{opEcho, 1}}
	mixOneSided = opMix{{opRead, 0.50}, {opWrite, 0.25}, {opFetchAdd, 0.25}}
	mixKV       = opMix{{opPut, 0.75}, {opGet, 0.25}}
)

// KV key space: every caller owns keysPerCaller keys and reads all of
// them, so gets land on keys with puts in flight by design.
const (
	kvCallers     = 16
	keysPerCaller = 4
	kvKeys        = kvCallers * keysPerCaller
)

// opGen yields one caller's op sequence.
type opGen struct {
	rng    *stats.RNG
	mix    opMix
	caller int
}

func newOpGen(seed uint64, caller int, mix opMix) *opGen {
	return &opGen{rng: callerRNG(seed, caller), mix: mix, caller: caller}
}

// callerRNG derives an independent stream per (seed, caller).
func callerRNG(seed uint64, caller int) *stats.RNG {
	return stats.NewRNG(seed*0x9E3779B97F4A7C15 + uint64(caller)*0xBF58476D1CE4E5B9 + 1)
}

func (g *opGen) next() op {
	u := g.rng.Float64()
	kind := g.mix[len(g.mix)-1].kind
	for _, m := range g.mix {
		if u < m.share {
			kind = m.kind
			break
		}
		u -= m.share
	}
	switch kind {
	case opPut:
		// A caller writes only its own keys, so values per key stay
		// strictly increasing without coordination.
		return op{kind, g.caller*keysPerCaller + g.rng.Intn(keysPerCaller)}
	case opGet:
		return op{kind, g.rng.Intn(kvKeys)}
	}
	return op{kind: kind}
}

// fillPattern writes the caller's payload body. Echo and one-sided ops
// overwrite the first 8 bytes with a sequence number per op; the rest
// stays fixed so the generator costs nothing inside the window.
func fillPattern(buf []byte, seed uint64, caller int) {
	rng := callerRNG(seed^0xA5A5A5A5, caller)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
}

// kvKeyTable draws kvKeys distinct keys from the seed such that key i
// lands in shard i%shards: every seed loads the shards identically, so
// runs with different seeds stay comparable.
func kvKeyTable(seed uint64, shards int, shardOf func(uint64) int) []uint64 {
	rng := stats.NewRNG(seed*0x94D049BB133111EB + 7)
	keys := make([]uint64, 0, kvKeys)
	used := make(map[uint64]bool, kvKeys)
	for len(keys) < kvKeys {
		k := rng.Uint64()
		if used[k] || shardOf(k) != len(keys)%shards {
			continue
		}
		used[k] = true
		keys = append(keys, k)
	}
	return keys
}
