package rnic

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// MemRegion is a registered memory region (MR). Registration hands the
// buffer to the NIC for remote access: one-sided verbs address it by rkey
// and offset, subject to the region's permissions — the MPT/MTT role in
// Figure 1 of the paper.
//
// The owning host reads and writes the region through ReadAt/WriteAt and
// the 64-bit accessors. All access is mediated by an internal lock so that
// host polling and NIC DMA do not race — except View, which hands the host
// a range it owns by protocol and reads without the lock. The NIC moves an RC write's or
// read's bytes straight from one region into the other, in ascending
// MTU-sized chunks: each chunk is copied under both regions' locks, taken
// in registration order (seq) so that opposed copies between the same two
// regions cannot deadlock, and both locks are released in between, so a
// polling host observes the same partially-placed messages it would see on
// real hardware. FLock's canary framing (§4.1) depends on exactly that.
//
// The lock is a plain mutex, readers included. Every hold is one short
// copy, and a reader-writer lock hands itself to goroutines that are not
// running — an unlocking writer to the readers queued behind it, the last
// of those back to the next writer — which, on a host with fewer processors
// than pollers, puts a ring's producer and consumer into lockstep: one park
// and one wake per word read or written.
type MemRegion struct {
	mu    sync.Mutex
	buf   []byte
	lkey  uint32
	rkey  uint32
	perms Perm
	node  int
	// seq is the region's place in a process-wide registration order: a
	// copy between two regions locks the one with the smaller seq first.
	seq uint64

	// version counts the writes applied to buf, host and NIC alike, one per
	// chunk. It is bumped under mu after the bytes are in place.
	version atomic.Uint64

	notifier // armed by a poller about to block on the region
}

// mrSeq numbers registered regions across every device in the process.
var mrSeq atomic.Uint64

// Version returns the number of writes applied to the region so far. A
// poller that looked at the region and found nothing, having read Version
// first, need not look again until Version moves: a write that its look
// could have missed is counted after the value it read. This is the
// software stand-in for the cache line a polling core keeps until the NIC's
// DMA invalidates it.
func (mr *MemRegion) Version() uint64 { return mr.version.Load() }

// notifier is verbs' completion channel, shared by a CQ and — so that a FLock
// poller can block on the ring it reads — a region: Arm asks for one
// non-blocking signal on the creating device's channel (Device.Wake) at the
// next completion the NIC pushes or write it places. A poller that arms and
// then looks once more before it blocks misses nothing: what its look did
// not see finds the flag set. Host writes signal nothing.
type notifier struct {
	armed atomic.Bool
	wake  chan struct{}
}

// Arm asks for one signal at the next landing.
func (n *notifier) Arm() { n.armed.Store(true) }

// signal spends a set arm on one signal; a clear one costs an atomic load.
func (n *notifier) signal() {
	if n.armed.Load() && n.armed.Swap(false) {
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
}

// Len returns the size of the region in bytes.
func (mr *MemRegion) Len() int { return len(mr.buf) }

// LKey returns the local key identifying this region in work requests.
func (mr *MemRegion) LKey() uint32 { return mr.lkey }

// RKey returns the remote key that peers use to address this region.
func (mr *MemRegion) RKey() uint32 { return mr.rkey }

// Perms returns the remote-access permissions.
func (mr *MemRegion) Perms() Perm { return mr.perms }

// checkRange validates [off, off+n) against the region bounds.
func (mr *MemRegion) checkRange(off, n int) error {
	if off < 0 || n < 0 || off+n > len(mr.buf) {
		return fmt.Errorf("rnic: range [%d,%d) outside region of %d bytes", off, off+n, len(mr.buf))
	}
	return nil
}

// ReadAt copies len(dst) bytes starting at off into dst.
func (mr *MemRegion) ReadAt(dst []byte, off int) error {
	if err := mr.checkRange(off, len(dst)); err != nil {
		return err
	}
	mr.mu.Lock()
	copy(dst, mr.buf[off:])
	mr.mu.Unlock()
	return nil
}

// WriteAt copies src into the region starting at off.
func (mr *MemRegion) WriteAt(src []byte, off int) error {
	if err := mr.checkRange(off, len(src)); err != nil {
		return err
	}
	mr.mu.Lock()
	copy(mr.buf[off:], src)
	mr.version.Add(1)
	mr.mu.Unlock()
	return nil
}

// View returns the region's own bytes [off, off+n), not a copy: the pointer
// a host keeps into memory it registered. It takes no lock, so the contract
// is the caller's. The caller owns the range by protocol — no local or remote
// writer touches it until the caller says so (a ring consumer gives the space
// back only after it is done with the view) — and a locked read that
// observed the last bytes written there, such as the trailing canary of a
// ring frame read with Load64, orders the view's reads after every chunk
// that placed them. The view's capacity ends at off+n, so an append to it
// copies instead of writing past the range.
func (mr *MemRegion) View(off, n int) []byte {
	return mr.buf[off : off+n : off+n]
}

// Load64 reads the little-endian 64-bit word at off. It is the host-side
// polling primitive: FLock receivers poll ring-buffer control words with
// it.
func (mr *MemRegion) Load64(off int) uint64 {
	mr.mu.Lock()
	v := binary.LittleEndian.Uint64(mr.buf[off : off+8])
	mr.mu.Unlock()
	return v
}

// Store64 writes the little-endian 64-bit word v at off.
func (mr *MemRegion) Store64(off int, v uint64) {
	mr.mu.Lock()
	binary.LittleEndian.PutUint64(mr.buf[off:off+8], v)
	mr.version.Add(1)
	mr.mu.Unlock()
}

// dmaWriteChunked places the bytes of an inline write (src is the WR's
// own copy, not a region) in ascending MTU-sized chunks, releasing the lock
// between chunks (see type comment).
func (mr *MemRegion) dmaWriteChunked(src []byte, off, mtu int) {
	for len(src) > 0 {
		n := mtu
		if n > len(src) {
			n = len(src)
		}
		mr.mu.Lock()
		copy(mr.buf[off:], src[:n])
		mr.version.Add(1)
		mr.mu.Unlock()
		src = src[n:]
		off += n
	}
}

// dmaRead copies len(dst) bytes at off out of the region under one hold of
// its lock. Only a send's gather uses it: writes and reads copy region to
// region (copyChunked).
func (mr *MemRegion) dmaRead(dst []byte, off int) {
	mr.mu.Lock()
	copy(dst, mr.buf[off:off+len(dst)])
	mr.mu.Unlock()
}

// copyChunked copies n bytes from src at soff into dst at doff in ascending
// MTU-sized chunks, with no staging buffer: the DMA of an RC write (local
// region to remote) or read (remote to local). Each chunk is copied under
// both regions' locks, taken in registration order — one lock when src and
// dst are the same region — and bumps dst's version once; the locks are
// released between chunks (see type comment). Overlapping ranges of one
// region are copied chunk by chunk, as a NIC that reads each packet's bytes
// as it sends them would: their result is as undefined as on hardware.
func copyChunked(dst *MemRegion, doff int, src *MemRegion, soff, n, mtu int) {
	first, second := dst, src
	if src.seq < dst.seq {
		first, second = src, dst
	}
	for n > 0 {
		c := min(mtu, n)
		first.mu.Lock()
		if second != first {
			second.mu.Lock()
		}
		copy(dst.buf[doff:doff+c], src.buf[soff:soff+c])
		dst.version.Add(1)
		if second != first {
			second.mu.Unlock()
		}
		first.mu.Unlock()
		n -= c
		doff += c
		soff += c
	}
}

// CAS64 atomically replaces the 64-bit word at off with new when it holds
// old, returning whether the swap happened. It is the owning host's local
// atomic (a CPU CAS on registered memory); it serializes correctly with
// remote RDMA atomics because both go through the region lock.
func (mr *MemRegion) CAS64(off int, old, new uint64) bool {
	prev, err := mr.atomic64(off, func(v uint64) uint64 {
		if v == old {
			return new
		}
		return v
	})
	return err == nil && prev == old
}

// atomic64 runs fn on the 64-bit word at off under the region lock and
// returns the word's prior value. It implements fetch-and-add and
// compare-and-swap. off must be 8-byte aligned, as on real hardware.
func (mr *MemRegion) atomic64(off int, fn func(old uint64) (new uint64)) (uint64, error) {
	if off%8 != 0 {
		return 0, fmt.Errorf("rnic: atomic on unaligned offset %d", off)
	}
	if err := mr.checkRange(off, 8); err != nil {
		return 0, err
	}
	mr.mu.Lock()
	defer mr.mu.Unlock()
	old := binary.LittleEndian.Uint64(mr.buf[off : off+8])
	binary.LittleEndian.PutUint64(mr.buf[off:off+8], fn(old))
	mr.version.Add(1)
	return old, nil
}
