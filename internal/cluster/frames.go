package cluster

import (
	"encoding/binary"

	"flock/internal/mem"
)

// wireFrame is a pooled FRP2 replica-forward frame being filled. The
// magic is written once at lease time; the entry count is stamped by
// payload() and the epoch can be re-stamped, so a frame can be filled,
// sent, reset and refilled (the snapshot streamer's loop) and re-sent
// under a newer map without re-deriving the header. The lease is the
// caller's to release.
type wireFrame struct {
	buf *mem.Buf
	n   int
}

const wireEntryLen = 16

// add appends one entry. The caller is responsible for staying within
// the entry capacity the frame was leased for.
func (f *wireFrame) add(key, val uint64) {
	off := replHeaderLen + f.n*wireEntryLen
	b := f.buf.Data()
	binary.LittleEndian.PutUint64(b[off:off+8], key)
	binary.LittleEndian.PutUint64(b[off+8:off+16], val)
	f.n++
}

// payload stamps the entry count and returns the wire bytes. The slice
// aliases the pooled buffer: it is valid until reset or release.
func (f *wireFrame) payload() []byte {
	b := f.buf.Data()
	binary.LittleEndian.PutUint32(b[12:16], uint32(f.n))
	return b[:replHeaderLen+f.n*wireEntryLen]
}

// stampEpoch rewrites the sender's map epoch in the header.
func (f *wireFrame) stampEpoch(epoch uint64) {
	binary.LittleEndian.PutUint64(f.buf.Data()[4:12], epoch)
}

// reset empties the frame for refilling; the header stays stamped.
func (f *wireFrame) reset() { f.n = 0 }

// release returns the pooled buffer. The frame is dead afterwards.
func (f *wireFrame) release() {
	f.buf.Release()
	f.buf = nil
}

// leaseReplFrame leases an FRP2 replica-forward frame (magic, epoch u64,
// count u32, entries) sized for maxEntries. A filled frame's payload is
// byte-identical to AppendReplicaForward over the same entries.
func leaseReplFrame(epoch uint64, maxEntries int) *wireFrame {
	f := new(wireFrame)
	f.lease(epoch, maxEntries)
	return f
}

// lease is leaseReplFrame into a frame the caller already has.
func (f *wireFrame) lease(epoch uint64, maxEntries int) {
	*f = wireFrame{buf: mem.Get(ReplicaForwardSize(maxEntries))}
	binary.LittleEndian.PutUint32(f.buf.Data()[0:4], replMagic)
	f.stampEpoch(epoch)
}
