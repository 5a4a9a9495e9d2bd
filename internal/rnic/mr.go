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
// host polling and NIC DMA do not race; inbound RC writes larger than the
// fabric MTU are applied in ascending MTU-sized chunks with the lock
// released in between, so a polling host observes the same
// partially-placed messages it would see on real hardware. FLock's canary
// framing (§4.1) depends on exactly that.
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

	// version counts the writes applied to buf, host and NIC alike, one per
	// chunk. It is bumped under mu after the bytes are in place.
	version atomic.Uint64
}

// Version returns the number of writes applied to the region so far. A
// poller that looked at the region and found nothing, having read Version
// first, need not look again until Version moves: a write that its look
// could have missed is counted after the value it read. This is the
// software stand-in for the cache line a polling core keeps until the NIC's
// DMA invalidates it.
func (mr *MemRegion) Version() uint64 { return mr.version.Load() }

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

// dmaWriteChunked applies an inbound write in ascending MTU-sized chunks,
// releasing the lock between chunks (see type comment).
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

// dmaRead copies n bytes at off out of the region (requester-side read).
func (mr *MemRegion) dmaRead(dst []byte, off int) {
	mr.mu.Lock()
	copy(dst, mr.buf[off:off+len(dst)])
	mr.mu.Unlock()
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
