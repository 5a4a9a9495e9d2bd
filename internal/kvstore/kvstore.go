// Package kvstore is a MICA-like partitioned in-memory key-value store
// (Lim et al., NSDI'14), the storage substrate the FaSST evaluation — and
// therefore FLockTX's (§8.5) — builds on. It is a lossless open-addressing
// hash table over a flat memory arena with a per-key version+lock word, so
// optimistic concurrency control can:
//
//   - read values with a seqlock protocol (version, value, version);
//   - lock keys for writing with a CAS on the lock bit;
//   - validate read sets remotely by RDMA-reading the version word — the
//     arena is laid out for registration as an RDMA memory region, and
//     VersionOffset exposes each key's word for one-sided access
//     (FLockTX's validation phase, Figure 13).
//
// Slot layout (little-endian), repeated Capacity times after an 8-byte
// header word:
//
//	+0  key      uint64  (0 = empty; keys are offset by 1 on insert)
//	+8  verLock  uint64  bit 0 = locked, bits 1.. = version
//	+16 value    [ValSize]bytes (8-aligned)
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Mem is the storage arena. *rnic.MemRegion implements it, which is the
// intended backing when the store is served over RDMA; byteMem adapts a
// plain slice for standalone use.
type Mem interface {
	ReadAt(dst []byte, off int) error
	WriteAt(src []byte, off int) error
	Load64(off int) uint64
	Store64(off int, v uint64)
	CAS64(off int, old, new uint64) bool
	Len() int
}

// byteMem is a process-local arena.
type byteMem struct {
	mu sync.Mutex
	b  []byte
}

// NewMem returns a process-local arena of size bytes for standalone use.
// The store's protocol needs CAS64 and 64-bit load/store atomicity;
// byteMem provides them with an internal lock, so concurrent readers
// and CAS writers on the same word (a primary's get racing a put, a
// backup's inline replica apply racing a deposed primary) are safe —
// use an rnic.MemRegion for shared setups.
func NewMem(size int) Mem { return &byteMem{b: make([]byte, size)} }

func (m *byteMem) ReadAt(dst []byte, off int) error {
	if off < 0 || off+len(dst) > len(m.b) {
		return errors.New("kvstore: read out of range")
	}
	m.mu.Lock()
	copy(dst, m.b[off:])
	m.mu.Unlock()
	return nil
}

func (m *byteMem) WriteAt(src []byte, off int) error {
	if off < 0 || off+len(src) > len(m.b) {
		return errors.New("kvstore: write out of range")
	}
	m.mu.Lock()
	copy(m.b[off:], src)
	m.mu.Unlock()
	return nil
}

func (m *byteMem) Load64(off int) uint64 {
	m.mu.Lock()
	v := binary.LittleEndian.Uint64(m.b[off : off+8])
	m.mu.Unlock()
	return v
}

func (m *byteMem) Store64(off int, v uint64) {
	m.mu.Lock()
	binary.LittleEndian.PutUint64(m.b[off:off+8], v)
	m.mu.Unlock()
}

func (m *byteMem) CAS64(off int, old, new uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if binary.LittleEndian.Uint64(m.b[off:off+8]) != old {
		return false
	}
	binary.LittleEndian.PutUint64(m.b[off:off+8], new)
	return true
}

func (m *byteMem) Len() int { return len(m.b) }

// Errors.
var (
	ErrFull     = errors.New("kvstore: table full")
	ErrNotFound = errors.New("kvstore: key not found")
	ErrLocked   = errors.New("kvstore: key locked")
)

const (
	lockBit     = uint64(1)
	headerBytes = 8
)

// Store is one partition's hash table.
type Store struct {
	mem      Mem
	capacity uint64 // slots, power of two
	valSize  int
	slotSize int
}

// ArenaSize returns the arena bytes needed for a store with the given
// geometry.
func ArenaSize(capacity, valSize int) int {
	return headerBytes + capacity*slotBytes(valSize)
}

func slotBytes(valSize int) int {
	return 16 + (valSize+7)&^7
}

// New builds a store over mem. capacity is rounded up to a power of two
// and must fit in mem.
func New(mem Mem, capacity, valSize int) (*Store, error) {
	cap2 := uint64(1)
	for cap2 < uint64(capacity) {
		cap2 <<= 1
	}
	s := &Store{mem: mem, capacity: cap2, valSize: valSize, slotSize: slotBytes(valSize)}
	if need := headerBytes + int(cap2)*s.slotSize; need > mem.Len() {
		return nil, fmt.Errorf("kvstore: arena %d bytes < needed %d", mem.Len(), need)
	}
	return s, nil
}

// Capacity reports the slot count.
func (s *Store) Capacity() int { return int(s.capacity) }

// ValSize reports the value size in bytes.
func (s *Store) ValSize() int { return s.valSize }

// slotOff returns the byte offset of slot i.
func (s *Store) slotOff(i uint64) int { return headerBytes + int(i)*s.slotSize }

// hash mixes a key (fibonacci hashing).
func hash(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	return key
}

// findSlot locates key's slot offset via linear probing; insert controls
// whether an empty slot claims the key.
func (s *Store) findSlot(key uint64, insert bool) (int, error) {
	stored := key + 1 // reserve 0 for "empty"
	if stored == 0 {
		return 0, errors.New("kvstore: key ^uint64(0) unsupported")
	}
	idx := hash(key) & (s.capacity - 1)
	for probe := uint64(0); probe < s.capacity; probe++ {
		off := s.slotOff((idx + probe) & (s.capacity - 1))
		cur := s.mem.Load64(off)
		if cur == stored {
			return off, nil
		}
		if cur == 0 {
			if !insert {
				return 0, ErrNotFound
			}
			// Claim the slot; on a race, re-check the winner.
			if s.mem.CAS64(off, 0, stored) {
				return off, nil
			}
			if s.mem.Load64(off) == stored {
				return off, nil
			}
			continue
		}
	}
	if insert {
		return 0, ErrFull
	}
	return 0, ErrNotFound
}

// Insert stores val under key, creating the slot if needed. Not
// linearizable against concurrent writers of the same key — loading is a
// bootstrap activity; steady-state mutation goes through Lock/Unlock.
func (s *Store) Insert(key uint64, val []byte) error {
	if len(val) > s.valSize {
		return fmt.Errorf("kvstore: value %d > slot %d", len(val), s.valSize)
	}
	off, err := s.findSlot(key, true)
	if err != nil {
		return err
	}
	if err := s.mem.WriteAt(val, off+16); err != nil {
		return err
	}
	ver := s.mem.Load64(off + 8)
	s.mem.Store64(off+8, (ver|lockBit)+1) // bump version, clear lock
	return nil
}

// Get reads key's value and version with the seqlock protocol. A torn
// copy (version moved underneath the read) retries; a *locked* slot
// returns ErrLocked immediately instead of waiting — the OCC execution
// phase must abort on a locked key (Figure 13), and spinning inside an
// RPC handler would wedge the dispatcher the lock holder needs for its
// own commit.
func (s *Store) Get(key uint64, dst []byte) (version uint64, err error) {
	off, err := s.findSlot(key, false)
	if err != nil {
		return 0, err
	}
	if len(dst) > s.valSize {
		dst = dst[:s.valSize]
	}
	for {
		v1 := s.mem.Load64(off + 8)
		if v1&lockBit != 0 {
			return v1, ErrLocked
		}
		if err := s.mem.ReadAt(dst, off+16); err != nil {
			return 0, err
		}
		if s.mem.Load64(off+8) == v1 {
			return v1, nil
		}
		// Torn copy: a writer committed mid-read; retry (writers finish).
	}
}

// Lock acquires key's write lock (OCC execution phase). It fails
// immediately with ErrLocked when contended — the coordinator aborts, as
// in Figure 13.
func (s *Store) Lock(key uint64) error {
	off, err := s.findSlot(key, false)
	if err != nil {
		return err
	}
	ver := s.mem.Load64(off + 8)
	if ver&lockBit != 0 || !s.mem.CAS64(off+8, ver, ver|lockBit) {
		return ErrLocked
	}
	return nil
}

// Unlock releases key's lock; when val is non-nil the value is replaced
// and the version bumped (OCC commit), otherwise the version is restored
// unchanged (abort).
func (s *Store) Unlock(key uint64, val []byte) error {
	off, err := s.findSlot(key, false)
	if err != nil {
		return err
	}
	ver := s.mem.Load64(off + 8)
	if ver&lockBit == 0 {
		return errors.New("kvstore: unlock of unlocked key")
	}
	if val != nil {
		if len(val) > s.valSize {
			return fmt.Errorf("kvstore: value %d > slot %d", len(val), s.valSize)
		}
		if err := s.mem.WriteAt(val, off+16); err != nil {
			return err
		}
		s.mem.Store64(off+8, ver+1) // clears lock bit (ver is odd), bumps version
		return nil
	}
	s.mem.Store64(off+8, ver&^lockBit)
	return nil
}

// GetLocked reads key's value without the seqlock retry loop; the caller
// must hold the key's lock (OCC read-modify-write under the write lock).
func (s *Store) GetLocked(key uint64, dst []byte) error {
	off, err := s.findSlot(key, false)
	if err != nil {
		return err
	}
	if len(dst) > s.valSize {
		dst = dst[:s.valSize]
	}
	return s.mem.ReadAt(dst, off+16)
}

// Apply overwrites key's value and bumps the version without the lock
// protocol; replicas use it to apply logged updates in receive order.
func (s *Store) Apply(key uint64, val []byte) error {
	off, err := s.findSlot(key, true)
	if err != nil {
		return err
	}
	if err := s.mem.WriteAt(val, off+16); err != nil {
		return err
	}
	ver := s.mem.Load64(off + 8)
	s.mem.Store64(off+8, (ver|lockBit)+1)
	return nil
}

// UpdateMax64 atomically raises key's value — interpreted as one
// little-endian uint64 word — to val, creating the slot if needed. It
// returns whether the stored value changed. The CAS loop makes
// concurrent UpdateMax64 calls converge on the maximum, which is the
// guarded-apply primitive shard migration relies on: snapshot chunks,
// dual-written forwards and client retries may arrive in any order and
// any multiplicity, and the slot still ends at the newest value. The
// store must have ValSize >= 8. The value is a single word, so readers
// don't need the seqlock; the version word only publishes the slot.
func (s *Store) UpdateMax64(key uint64, val uint64) (bool, error) {
	if s.valSize < 8 {
		return false, fmt.Errorf("kvstore: UpdateMax64 needs ValSize >= 8, have %d", s.valSize)
	}
	off, err := s.findSlot(key, true)
	if err != nil {
		return false, err
	}
	adv := false
	for {
		cur := s.mem.Load64(off + 16)
		if cur >= val {
			break
		}
		if s.mem.CAS64(off+16, cur, val) {
			adv = true
			break
		}
	}
	// findSlot claims a new key's slot before any value is in it. The
	// version word leaves 0 — the first bump Insert makes too — only once
	// the value is, and before this call returns: until then Value64 and
	// Scan treat the key as absent, not as holding a value nobody wrote.
	if s.mem.Load64(off+8) == 0 {
		s.mem.CAS64(off+8, 0, 2)
	}
	return adv, nil
}

// Value64 reads key's value as one little-endian uint64 word; ok is
// false when the key has no slot, or has one whose first write is still
// in progress. Like UpdateMax64 it bypasses the seqlock — a single word
// loads atomically.
func (s *Store) Value64(key uint64) (val uint64, ok bool) {
	off, err := s.findSlot(key, false)
	if err != nil || s.mem.Load64(off+8) == 0 {
		return 0, false
	}
	return s.mem.Load64(off + 16), true
}

// VersionOffset returns the byte offset of key's version+lock word inside
// the arena, for one-sided RDMA validation.
func (s *Store) VersionOffset(key uint64) (int, error) {
	off, err := s.findSlot(key, false)
	if err != nil {
		return 0, err
	}
	return off + 8, nil
}

// Version reads key's current version word (local fast path).
func (s *Store) Version(key uint64) (uint64, error) {
	off, err := s.findSlot(key, false)
	if err != nil {
		return 0, err
	}
	return s.mem.Load64(off + 8), nil
}

// Fingerprint64 folds every occupied slot's key and first value word
// into one order-independent digest (a commutative sum of per-slot
// mixes), so two stores hold the same 8-byte-word contents iff their
// fingerprints match — regardless of insertion order or arena layout.
// Replication tests use it to compare a primary against its backups
// after traffic quiesces; like Scan it is not a point-in-time snapshot
// under concurrent writers.
func (s *Store) Fingerprint64() uint64 {
	var fp uint64
	s.Scan(func(key uint64, val []byte) bool {
		word := binary.LittleEndian.Uint64(val[:8])
		// splitmix64-style finalizer over (key, word) so near-identical
		// slots don't cancel in the commutative sum.
		x := key ^ 0x9E3779B97F4A7C15
		x ^= word * 0xBF58476D1CE4E5B9
		x ^= x >> 30
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		fp += x
		return true
	})
	return fp
}

// Scan iterates every occupied slot in arena order, calling fn with the
// key and a copy of its value; a slot whose first write is still in
// progress is skipped. Returning false from fn stops the scan.
// Scan uses the seqlock protocol per slot, so it tolerates concurrent
// writers; it is the snapshot primitive shard migration copies from. The
// iteration is not a point-in-time snapshot — concurrent writes may or
// may not be observed — so migration pairs it with guarded applies on the
// receiving side.
func (s *Store) Scan(fn func(key uint64, val []byte) bool) {
	val := make([]byte, s.valSize)
slots:
	for i := uint64(0); i < s.capacity; i++ {
		off := s.slotOff(i)
		stored := s.mem.Load64(off)
		if stored == 0 {
			continue
		}
		for {
			v1 := s.mem.Load64(off + 8)
			if v1 == 0 {
				continue slots
			}
			if v1&lockBit != 0 {
				continue // writer mid-commit; it finishes promptly
			}
			if err := s.mem.ReadAt(val, off+16); err != nil {
				return
			}
			if s.mem.Load64(off+8) == v1 {
				break
			}
		}
		if !fn(stored-1, val) {
			return
		}
	}
}

// Locked reports whether a version word carries the lock bit.
func Locked(verLock uint64) bool { return verLock&lockBit != 0 }

// VersionOf strips the lock bit off a version word.
func VersionOf(verLock uint64) uint64 { return verLock &^ lockBit }
