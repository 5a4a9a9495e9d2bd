package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Native fuzz targets for the wire format (§4.1): the coalesced-message
// framing and the per-item metadata — the TCQ slot header the leader
// stages for each follower. Seed corpus lives in testdata/fuzz; run with
//
//	go test -fuzz=FuzzDecodeMessage -fuzztime=30s ./internal/core
//
// The targets assert three properties: the decoder never panics on
// arbitrary bytes (it guards a ring the remote side writes), encode→decode
// is the identity for every representable value, and a frame without the
// item-metadata flag — the retired 24-byte layout included — is rejected.

// encodeTestMessage builds a valid v2 message from payloads using the
// production encode helpers, mirroring the leader's staging layout.
func encodeTestMessage(h header, payloads [][]byte) []byte {
	sizes := make([]int, len(payloads))
	for i, p := range payloads {
		sizes[i] = len(p)
	}
	h.totalLen = uint32(msgSpace(sizes))
	h.count = uint32(len(payloads))
	h.flags |= flagItemMetaV2
	buf := make([]byte, h.totalLen)
	putHeader(buf, h)
	off := headerBytes
	for i, p := range payloads {
		putItemMeta(buf[off:], itemMeta{
			size:     uint32(len(p)),
			threadID: uint32(i),
			seqID:    uint64(i) * 7,
			rpcID:    uint32(i) + 1,
			status:   0,
			idemKey:  uint64(i) * 13,
		})
		off += itemMetaBytes
		copy(buf[off:], p)
		off += pad8(len(p))
	}
	binary.LittleEndian.PutUint64(buf[len(buf)-trailerBytes:], h.canary)
	return buf
}

// encodeTestMessageV1 builds the same message in the retired layout:
// 24-byte item metadata (no idemKey), flag clear. Nothing in the system
// emits it any more; it is kept here, spelled out by hand, as the negative
// seed the decoder must reject.
func encodeTestMessageV1(h header, payloads [][]byte) []byte {
	const itemMetaV1Bytes = 24
	msgLen := headerBytes + trailerBytes
	for _, p := range payloads {
		msgLen += itemMetaV1Bytes + pad8(len(p))
	}
	h.totalLen = uint32(msgLen)
	h.count = uint32(len(payloads))
	h.flags &^= flagItemMetaV2
	buf := make([]byte, msgLen)
	putHeader(buf, h)
	off := headerBytes
	for i, p := range payloads {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(p))) // size
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(i))    // threadID
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(i)*7)  // seqID
		binary.LittleEndian.PutUint32(buf[off+16:], uint32(i)+1) // rpcID; status stays 0
		off += itemMetaV1Bytes
		copy(buf[off:], p)
		off += pad8(len(p))
	}
	binary.LittleEndian.PutUint64(buf[len(buf)-trailerBytes:], h.canary)
	return buf
}

func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, headerBytes+trailerBytes))
	f.Add(encodeTestMessage(header{canary: 0xfeedface}, [][]byte{[]byte("hello")}))
	reserved := encodeTestMessage(header{canary: 1, piggyHead: 42},
		[][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xab}, 100)})
	binary.LittleEndian.PutUint32(reserved[24:], 3) // the reserved word is ignored on receipt
	f.Add(reserved)
	// Frames in the retired v1 layout: negative seeds.
	f.Add(encodeTestMessageV1(header{canary: 0xfeedface}, [][]byte{[]byte("hello")}))
	f.Add(encodeTestMessageV1(header{canary: 5, piggyHead: 9},
		[][]byte{nil, []byte("legacy")}))
	// A frame carrying pushback statuses and idempotency keys.
	f.Add(encodeTestMessage(header{canary: 11, flags: flagItemMetaV2},
		[][]byte{[]byte("overloaded"), []byte("draining")}))
	// Torn/corrupt variants of a valid message.
	m := encodeTestMessage(header{canary: 7}, [][]byte{[]byte("payload")})
	f.Add(m[:len(m)-1])
	bad := append([]byte(nil), m...)
	bad[4] = 200 // count no longer matches the items present
	f.Add(bad)
	// A valid frame whose flag was stripped: rejected, without panicking.
	stripped := append([]byte(nil), m...)
	binary.LittleEndian.PutUint32(stripped[28:], 0)
	f.Add(stripped)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, items, err := decodeMessage(data) // must not panic, whatever the bytes
		if err != nil {
			return
		}
		// Structural postconditions of a successful decode.
		if int(h.totalLen) != len(data) {
			t.Fatalf("accepted totalLen %d for %d bytes", h.totalLen, len(data))
		}
		if h.flags&flagItemMetaV2 == 0 {
			t.Fatalf("accepted a frame without the item-metadata flag (flags %#x)", h.flags)
		}
		if uint32(len(items)) != h.count {
			t.Fatalf("returned %d items, header says %d", len(items), h.count)
		}
		for i, it := range items {
			if int(it.meta.size) != len(it.data) {
				t.Fatalf("item %d: meta size %d, data %d", i, it.meta.size, len(it.data))
			}
		}
		// Decoding is deterministic, and the reuse path agrees with the
		// allocating path.
		h2, items2, err2 := decodeMessageInto(data, make([]decodedItem, 0, 4))
		if err2 != nil || h2 != h || len(items2) != len(items) {
			t.Fatalf("decodeMessageInto diverged: %v %+v", err2, h2)
		}
		for i := range items {
			if items2[i].meta != items[i].meta || !bytes.Equal(items2[i].data, items[i].data) {
				t.Fatalf("item %d diverged between decode paths", i)
			}
		}
	})
}

func FuzzMessageRoundTrip(f *testing.F) {
	f.Add(uint64(0xdeadbeef), uint64(12), uint32(4), []byte("hello world"))
	f.Add(uint64(1), uint64(0), uint32(0), []byte{})
	f.Add(uint64(0), uint64(1<<40), uint32(1<<20), bytes.Repeat([]byte{0x5a}, 300))

	f.Fuzz(func(t *testing.T, canary, piggyHead uint64, reserved uint32, blob []byte) {
		// Split the blob into up to 5 items (including empty ones) and
		// round-trip the whole message.
		var payloads [][]byte
		for i := 0; i < 5 && len(blob) > 0; i++ {
			n := len(blob) / (5 - i)
			payloads = append(payloads, blob[:n])
			blob = blob[n:]
		}
		buf := encodeTestMessage(header{canary: canary, piggyHead: piggyHead}, payloads)
		binary.LittleEndian.PutUint32(buf[24:], reserved) // ignored on receipt
		h, items, err := decodeMessage(buf)
		if err != nil {
			t.Fatalf("valid message rejected: %v", err)
		}
		if h.canary != canary || h.piggyHead != piggyHead {
			t.Fatalf("header fields changed: %+v", h)
		}
		if len(items) != len(payloads) {
			t.Fatalf("%d items out, %d in", len(items), len(payloads))
		}
		for i, p := range payloads {
			if !bytes.Equal(items[i].data, p) {
				t.Fatalf("item %d payload changed: %q != %q", i, items[i].data, p)
			}
		}

		// The same items in the retired layout, and the valid frame with
		// its flag stripped, are both rejected without panic.
		buf1 := encodeTestMessageV1(header{canary: canary, piggyHead: piggyHead}, payloads)
		if _, _, err := decodeMessage(buf1); err == nil {
			t.Fatal("frame in the retired 24-byte layout accepted")
		}
		binary.LittleEndian.PutUint32(buf[28:], h.flags&^flagItemMetaV2)
		if _, _, err := decodeMessage(buf); err == nil {
			t.Fatal("frame with the item-metadata flag stripped accepted")
		}
	})
}

func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(uint32(64), uint32(1), uint64(0xfeedface), uint64(9), uint32(2), uint32(0))
	f.Add(^uint32(0), ^uint32(0), ^uint64(0), ^uint64(0), ^uint32(0), ^uint32(0))
	f.Add(uint32(72), uint32(1), uint64(3), uint64(0), uint32(0), flagItemMetaV2)
	f.Fuzz(func(t *testing.T, totalLen, count uint32, canary, piggyHead uint64, reserved, flags uint32) {
		in := header{totalLen: totalLen, count: count, canary: canary,
			piggyHead: piggyHead, flags: flags}
		var buf [headerBytes]byte
		putHeader(buf[:], in)
		binary.LittleEndian.PutUint32(buf[24:], reserved) // ignored on receipt
		if out := getHeader(buf[:]); out != in {
			t.Fatalf("header round trip: %+v != %+v", out, in)
		}
	})
}

func FuzzItemMetaRoundTrip(f *testing.F) {
	f.Add(uint32(8), uint32(3), uint64(77), uint32(1), uint32(0))
	f.Add(^uint32(0), ^uint32(0), ^uint64(0), ^uint32(0), ^uint32(0))
	f.Fuzz(func(t *testing.T, size, threadID uint32, seqID uint64, rpcID, status uint32) {
		in := itemMeta{size: size, threadID: threadID, seqID: seqID, rpcID: rpcID, status: status}
		var buf [itemMetaBytes]byte
		putItemMeta(buf[:], in)
		if out := getItemMeta(buf[:]); out != in {
			t.Fatalf("item meta round trip: %+v != %+v", out, in)
		}
	})
}

// FuzzItemMetaV2RoundTrip covers the full metadata including the
// idempotency key.
func FuzzItemMetaV2RoundTrip(f *testing.F) {
	f.Add(uint32(8), uint32(3), uint64(77), uint32(1), uint32(4), uint64(0xabcdef))
	f.Add(^uint32(0), ^uint32(0), ^uint64(0), ^uint32(0), ^uint32(0), ^uint64(0))
	f.Add(uint32(0), uint32(0), uint64(0), uint32(0), uint32(5), uint64(1))
	f.Fuzz(func(t *testing.T, size, threadID uint32, seqID uint64, rpcID, status uint32, idemKey uint64) {
		in := itemMeta{size: size, threadID: threadID, seqID: seqID,
			rpcID: rpcID, status: status, idemKey: idemKey}
		var buf [itemMetaBytes]byte
		putItemMeta(buf[:], in)
		if out := getItemMeta(buf[:]); out != in {
			t.Fatalf("v2 item meta round trip: %+v != %+v", out, in)
		}
	})
}

// TestFuzzCorpusFresh regenerates the checked-in seed corpus for the
// format-sensitive targets whenever the wire layout changes, and fails the
// run that found them stale so the refresh gets committed. The files are
// deterministic, so a clean tree stays clean.
func TestFuzzCorpusFresh(t *testing.T) {
	entries := map[string][]byte{
		"testdata/fuzz/FuzzDecodeMessage/seed-v2-single": corpusBytes(
			encodeTestMessage(header{canary: 0xfeedface}, [][]byte{[]byte("hello")})),
		"testdata/fuzz/FuzzDecodeMessage/seed-v2-idem": corpusBytes(
			encodeTestMessage(header{canary: 11}, [][]byte{[]byte("idempotent"), nil})),
		"testdata/fuzz/FuzzDecodeMessage/seed-v1-legacy": corpusBytes(
			encodeTestMessageV1(header{canary: 5, piggyHead: 9}, [][]byte{nil, []byte("legacy")})),
		"testdata/fuzz/FuzzItemMetaV2RoundTrip/seed-basic": []byte(
			"go test fuzz v1\nuint32(8)\nuint32(3)\nuint64(77)\nuint32(1)\nuint32(4)\nuint64(11259375)\n"),
		"testdata/fuzz/FuzzItemMetaV2RoundTrip/seed-max": []byte(
			"go test fuzz v1\nuint32(4294967295)\nuint32(4294967295)\nuint64(18446744073709551615)\nuint32(4294967295)\nuint32(4294967295)\nuint64(18446744073709551615)\n"),
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

// corpusBytes renders one []byte fuzz-corpus entry in the go test corpus
// file format.
func corpusBytes(b []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b))
}
