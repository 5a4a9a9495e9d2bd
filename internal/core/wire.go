package core

import (
	"encoding/binary"
	"fmt"

	"flock/internal/rnic"
)

// Wire format of a coalesced message (§4.1, Figure 5).
//
//	header (32 B):
//	  +0  totalLen  uint32  whole message incl. header and trailing canary
//	  +4  count     uint32  number of items
//	  +8  canary    uint64  random, repeated at the end of the message
//	  +16 piggyHead uint64  sender's consumed head of the opposite ring
//	  +24 reserved  uint32  written as zero, ignored on receipt
//	  +28 flags     uint32  flagItemMetaV2 must be set; the rest reserved
//	item (32 B metadata, then payload padded to 8 B):
//	  +0  size     uint32  payload bytes
//	  +4  threadID uint32
//	  +8  seqID    uint64  call ID within the thread, echoed (§4.1):
//	                       generation<<16 | slot of its pending table
//	  +16 rpcID    uint32  handler ID (requests) / echoed (responses)
//	  +20 status   uint32  response status
//	  +24 idemKey  uint64  idempotency key; 0 = not idempotent
//	trailer (8 B): canary uint64
//
// The receiver polls the first word at its Head; a nonzero totalLen with
// matching canaries at both ends means the message is complete, relying on
// RDMA writes becoming visible in ascending address order (§4.1). A
// totalLen of wrapMarker tells the receiver the producer wrapped to offset
// zero.
//
// There is one item-metadata layout. Every encoder sets flagItemMetaV2 in
// the header, and a frame without it (the 24-byte layout that predates
// idemKey, which nothing in this system can emit) is rejected like any
// other malformed input.
const (
	headerBytes   = 32
	itemMetaBytes = 32
	trailerBytes  = 8
	wrapMarker    = ^uint32(0)

	// flagItemMetaV2 in header.flags marks 32-byte item metadata.
	flagItemMetaV2 uint32 = 1 << 0
)

// itemSpace returns the footprint of one item.
func itemSpace(payload int) int { return itemMetaBytes + pad8(payload) }

// pad8 rounds n up to a multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// header is the decoded message header.
type header struct {
	totalLen  uint32
	count     uint32
	canary    uint64
	piggyHead uint64
	flags     uint32
}

// putHeader encodes h into b (len >= headerBytes).
func putHeader(b []byte, h header) {
	binary.LittleEndian.PutUint32(b[0:], h.totalLen)
	binary.LittleEndian.PutUint32(b[4:], h.count)
	binary.LittleEndian.PutUint64(b[8:], h.canary)
	binary.LittleEndian.PutUint64(b[16:], h.piggyHead)
	binary.LittleEndian.PutUint32(b[24:], 0) // reserved
	binary.LittleEndian.PutUint32(b[28:], h.flags)
}

// seal finishes the message staged in the reservation res — count items
// already written behind the header — and appends the work requests that ship
// it to wrs: the trailing canary and then the header are stamped (random made
// nonzero is the canary; piggyHead is the sender's consumed head of the
// opposite ring), the wrap marker reserve staged goes ahead of the message so
// the receiver skips to offset zero, and every signalEvery-th message write
// asks for a completion (selective signalling, §7).
func (p *ringProducer) seal(wrs []rnic.SendWR, res reservation, count int, random, piggyHead uint64, signalEvery int) []rnic.SendWR {
	canary := random | 1
	var b [headerBytes]byte
	binary.LittleEndian.PutUint64(b[:], canary)
	p.staging.WriteAt(b[:trailerBytes], res.msgOff+res.msgLen-trailerBytes) //nolint:errcheck // reserved span
	putHeader(b[:], header{
		totalLen:  uint32(res.msgLen),
		count:     uint32(count),
		canary:    canary,
		piggyHead: piggyHead,
		flags:     flagItemMetaV2,
	})
	p.staging.WriteAt(b[:], res.msgOff) //nolint:errcheck // reserved span
	if res.markerOff >= 0 {
		wrs = append(wrs, rnic.SendWR{
			WRID: tagMarker, Op: rnic.OpWrite,
			LocalMR: p.staging, LocalOff: res.markerOff, LocalLen: 8,
			RKey: p.rkey, RemoteOff: res.markerOff,
		})
	}
	p.msgSeq++
	return append(wrs, rnic.SendWR{
		WRID: tagMsg, Op: rnic.OpWrite,
		LocalMR: p.staging, LocalOff: res.msgOff, LocalLen: res.msgLen,
		RKey: p.rkey, RemoteOff: res.msgOff,
		Signaled: p.msgSeq%uint64(signalEvery) == 0,
	})
}

// getHeader decodes a header from b.
func getHeader(b []byte) header {
	return header{
		totalLen:  binary.LittleEndian.Uint32(b[0:]),
		count:     binary.LittleEndian.Uint32(b[4:]),
		canary:    binary.LittleEndian.Uint64(b[8:]),
		piggyHead: binary.LittleEndian.Uint64(b[16:]),
		flags:     binary.LittleEndian.Uint32(b[28:]),
	}
}

// itemMeta is the decoded per-item metadata.
type itemMeta struct {
	size     uint32
	threadID uint32
	seqID    uint64
	rpcID    uint32
	status   uint32
	idemKey  uint64
}

// putItemMeta encodes m into b (len >= itemMetaBytes).
func putItemMeta(b []byte, m itemMeta) {
	binary.LittleEndian.PutUint32(b[0:], m.size)
	binary.LittleEndian.PutUint32(b[4:], m.threadID)
	binary.LittleEndian.PutUint64(b[8:], m.seqID)
	binary.LittleEndian.PutUint32(b[16:], m.rpcID)
	binary.LittleEndian.PutUint32(b[20:], m.status)
	binary.LittleEndian.PutUint64(b[24:], m.idemKey)
}

// getItemMeta decodes per-item metadata from b.
func getItemMeta(b []byte) itemMeta {
	return itemMeta{
		size:     binary.LittleEndian.Uint32(b[0:]),
		threadID: binary.LittleEndian.Uint32(b[4:]),
		seqID:    binary.LittleEndian.Uint64(b[8:]),
		rpcID:    binary.LittleEndian.Uint32(b[16:]),
		status:   binary.LittleEndian.Uint32(b[20:]),
		idemKey:  binary.LittleEndian.Uint64(b[24:]),
	}
}

// decodedItem is one request or response extracted from a message.
type decodedItem struct {
	meta itemMeta
	data []byte // slice of the decode buffer; copy before retaining
}

// decodeMessageInto validates and splits a complete message, appending
// into items[:0] so a polling loop can reuse one item slice across messages
// instead of allocating per poll. buf must hold the entire message
// (totalLen bytes). It returns the header and items, or an error if the
// message is structurally corrupt. Canary validation is the caller's
// business (the caller polls; decode assumes completeness).
func decodeMessageInto(buf []byte, items []decodedItem) (header, []decodedItem, error) {
	if len(buf) < headerBytes+trailerBytes {
		return header{}, nil, fmt.Errorf("core: message shorter than framing (%d)", len(buf))
	}
	h := getHeader(buf)
	if int(h.totalLen) != len(buf) {
		return header{}, nil, fmt.Errorf("core: totalLen %d != buffer %d", h.totalLen, len(buf))
	}
	tail := binary.LittleEndian.Uint64(buf[len(buf)-trailerBytes:])
	if tail != h.canary {
		return header{}, nil, fmt.Errorf("core: canary mismatch")
	}
	if h.flags&flagItemMetaV2 == 0 {
		return header{}, nil, fmt.Errorf("core: frame without the item-metadata flag (flags %#x)", h.flags)
	}
	items = items[:0]
	off := headerBytes
	for i := uint32(0); i < h.count; i++ {
		if off+itemMetaBytes > len(buf)-trailerBytes {
			return header{}, nil, fmt.Errorf("core: item %d metadata overruns message", i)
		}
		m := getItemMeta(buf[off:])
		off += itemMetaBytes
		end := off + pad8(int(m.size))
		if int(m.size) > pad8(int(m.size)) || end > len(buf)-trailerBytes {
			return header{}, nil, fmt.Errorf("core: item %d payload overruns message", i)
		}
		items = append(items, decodedItem{meta: m, data: buf[off : off+int(m.size)]})
		off = end
	}
	if off != len(buf)-trailerBytes {
		return header{}, nil, fmt.Errorf("core: message has %d trailing bytes", len(buf)-trailerBytes-off)
	}
	return h, items, nil
}
