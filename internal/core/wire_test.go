package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

// msgSpace returns the on-ring footprint of a message with the given
// payload sizes.
func msgSpace(sizes []int) int {
	n := headerBytes + trailerBytes
	for _, s := range sizes {
		n += itemSpace(s)
	}
	return n
}

// decodeMessage is decodeMessageInto with a fresh item slice.
func decodeMessage(buf []byte) (header, []decodedItem, error) {
	return decodeMessageInto(buf, nil)
}

// buildMessage encodes a full message the way the leader does, for tests.
func buildMessage(items []itemMeta, payloads [][]byte, canary, piggy uint64) []byte {
	msgLen := headerBytes + trailerBytes
	for i := range payloads {
		msgLen += itemSpace(len(payloads[i]))
	}
	buf := make([]byte, msgLen)
	putHeader(buf, header{
		totalLen:  uint32(msgLen),
		count:     uint32(len(items)),
		canary:    canary,
		piggyHead: piggy,
		flags:     flagItemMetaV2,
	})
	off := headerBytes
	for i := range items {
		m := items[i]
		m.size = uint32(len(payloads[i]))
		putItemMeta(buf[off:], m)
		copy(buf[off+itemMetaBytes:], payloads[i])
		off += itemSpace(len(payloads[i]))
	}
	binary.LittleEndian.PutUint64(buf[msgLen-trailerBytes:], canary)
	return buf
}

func TestMessageRoundTrip(t *testing.T) {
	items := []itemMeta{
		{threadID: 1, seqID: 10, rpcID: 7},
		{threadID: 2, seqID: 20, rpcID: 8, status: 3},
		{threadID: 3, seqID: 30, rpcID: 9},
	}
	payloads := [][]byte{[]byte("alpha"), {}, []byte("a much longer payload, not 8-aligned!")}
	buf := buildMessage(items, payloads, 0xDEADBEEF, 4242)

	h, got, err := decodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.count != 3 || h.canary != 0xDEADBEEF || h.piggyHead != 4242 {
		t.Fatalf("header: %+v", h)
	}
	for i, it := range got {
		if it.meta.threadID != items[i].threadID || it.meta.seqID != items[i].seqID ||
			it.meta.rpcID != items[i].rpcID || it.meta.status != items[i].status {
			t.Fatalf("item %d meta: %+v", i, it.meta)
		}
		if !bytes.Equal(it.data, payloads[i]) {
			t.Fatalf("item %d data: %q != %q", i, it.data, payloads[i])
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(p1, p2 []byte, tid1, tid2 uint32, seq uint64, canary uint64) bool {
		if canary == 0 {
			canary = 1
		}
		if len(p1) > 1024 {
			p1 = p1[:1024]
		}
		if len(p2) > 1024 {
			p2 = p2[:1024]
		}
		items := []itemMeta{{threadID: tid1, seqID: seq}, {threadID: tid2, seqID: seq + 1}}
		buf := buildMessage(items, [][]byte{p1, p2}, canary, 0)
		h, got, err := decodeMessage(buf)
		if err != nil || h.count != 2 {
			return false
		}
		return bytes.Equal(got[0].data, p1) && bytes.Equal(got[1].data, p2) &&
			got[0].meta.threadID == tid1 && got[1].meta.threadID == tid2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := buildMessage([]itemMeta{{threadID: 1}}, [][]byte{[]byte("x")}, 99, 0)

	short := good[:headerBytes+4]
	if _, _, err := decodeMessage(short); err == nil {
		t.Error("short message accepted")
	}

	badLen := append([]byte(nil), good...)
	putHeader(badLen, header{totalLen: uint32(len(badLen) + 8), count: 1, canary: 99, flags: flagItemMetaV2})
	if _, _, err := decodeMessage(badLen); err == nil {
		t.Error("wrong totalLen accepted")
	}

	badCanary := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(badCanary[len(badCanary)-8:], 12345)
	if _, _, err := decodeMessage(badCanary); err == nil {
		t.Error("canary mismatch accepted")
	}

	// count larger than items present.
	badCount := append([]byte(nil), good...)
	putHeader(badCount, header{totalLen: uint32(len(badCount)), count: 50, canary: 99, flags: flagItemMetaV2})
	if _, _, err := decodeMessage(badCount); err == nil {
		t.Error("overrunning count accepted")
	}

	// item size overrunning the message.
	badSize := append([]byte(nil), good...)
	putItemMeta(badSize[headerBytes:], itemMeta{size: 4096, threadID: 1})
	if _, _, err := decodeMessage(badSize); err == nil {
		t.Error("overrunning item size accepted")
	}
}

func TestPad8(t *testing.T) {
	cases := map[int]int{0: 0, 1: 8, 7: 8, 8: 8, 9: 16, 63: 64, 64: 64}
	for in, want := range cases {
		if got := pad8(in); got != want {
			t.Errorf("pad8(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestMsgSpace(t *testing.T) {
	if got := msgSpace(nil); got != headerBytes+trailerBytes {
		t.Errorf("empty msgSpace = %d", got)
	}
	// One 5-byte item: 32 meta + 8 padded payload.
	if got := msgSpace([]int{5}); got != headerBytes+trailerBytes+itemMetaBytes+8 {
		t.Errorf("msgSpace([5]) = %d", got)
	}
	if got := itemSpace(64); got != itemMetaBytes+64 {
		t.Errorf("itemSpace(64) = %d", got)
	}
}

func TestHeaderEncoding(t *testing.T) {
	var b [headerBytes]byte
	in := header{totalLen: 1000, count: 3, canary: ^uint64(0), piggyHead: 1 << 40, flags: 5}
	putHeader(b[:], in)
	if out := getHeader(b[:]); out != in {
		t.Fatalf("header round trip: %+v != %+v", out, in)
	}
}

func TestItemMetaEncoding(t *testing.T) {
	var b [itemMetaBytes]byte
	in := itemMeta{size: 77, threadID: 3, seqID: 1 << 50, rpcID: 9, status: 2, idemKey: 1 << 60}
	putItemMeta(b[:], in)
	if out := getItemMeta(b[:]); out != in {
		t.Fatalf("item meta round trip: %+v != %+v", out, in)
	}
}

// TestUnflaggedFrameRejected: there is one item-metadata layout, and a
// frame whose header does not carry its flag is malformed input — whether
// it is an otherwise valid frame with the flag stripped or a frame in the
// retired 24-byte layout.
func TestUnflaggedFrameRejected(t *testing.T) {
	items := []itemMeta{
		{threadID: 1, seqID: 10, rpcID: 7, idemKey: 99},
		{threadID: 2, seqID: 20, rpcID: 8, status: 3, idemKey: 100},
	}
	payloads := [][]byte{[]byte("legacy"), []byte("frame")}
	good := buildMessage(items, payloads, 7, 0)
	if _, _, err := decodeMessage(good); err != nil {
		t.Fatalf("flagged frame rejected: %v", err)
	}
	stripped := append([]byte(nil), good...)
	h := getHeader(stripped)
	h.flags = 0
	putHeader(stripped, h)
	if _, got, err := decodeMessage(stripped); err == nil {
		t.Errorf("frame with the flag stripped decoded into %d items", len(got))
	}
	legacy := encodeTestMessageV1(header{canary: 7}, payloads)
	if _, got, err := decodeMessage(legacy); err == nil {
		t.Errorf("24-byte-metadata frame decoded into %d items", len(got))
	}
}
