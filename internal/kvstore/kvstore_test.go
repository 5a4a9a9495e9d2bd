package kvstore

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"

	"flock/internal/fabric"
	"flock/internal/rnic"
)

func newStore(t *testing.T, capacity, valSize int) *Store {
	t.Helper()
	s, err := New(NewMem(ArenaSize(capacity, valSize)), capacity, valSize)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInsertGet(t *testing.T) {
	s := newStore(t, 128, 8)
	for k := uint64(0); k < 100; k++ {
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], k*3)
		if err := s.Insert(k, v[:]); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	var buf [8]byte
	for k := uint64(0); k < 100; k++ {
		ver, err := s.Get(k, buf[:])
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if got := binary.LittleEndian.Uint64(buf[:]); got != k*3 {
			t.Fatalf("key %d = %d, want %d", k, got, k*3)
		}
		if Locked(ver) {
			t.Fatalf("key %d locked after insert", k)
		}
	}
}

func TestGetMissing(t *testing.T) {
	s := newStore(t, 16, 8)
	var buf [8]byte
	if _, err := s.Get(42, buf[:]); err != ErrNotFound {
		t.Fatalf("missing get: %v", err)
	}
}

// TestFirstPutPublishesAfterItsValue: UpdateMax64 claims a new key's slot
// before it writes the value, so a reader racing a key's first put can find
// the key with nothing in it yet. Value64 and Scan must report the key
// absent then, not present with a value no put wrote (a cluster get read
// (0, found) that way). A first put of 0 still makes the key present.
func TestFirstPutPublishesAfterItsValue(t *testing.T) {
	s := newStore(t, 16, 8)
	if _, err := s.findSlot(7, true); err != nil { // the first put, claimed and not yet written
		t.Fatal(err)
	}
	if v, ok := s.Value64(7); ok {
		t.Fatalf("a claimed, unwritten key reads (%d, found)", v)
	}
	s.Scan(func(key uint64, _ []byte) bool {
		t.Fatalf("Scan lists key %d before its first write", key)
		return false
	})
	for _, val := range []uint64{0, 5} {
		if _, err := s.UpdateMax64(7, val); err != nil {
			t.Fatal(err)
		}
		if v, ok := s.Value64(7); !ok || v != val {
			t.Fatalf("after UpdateMax64(7, %d): Value64 = (%d, %v)", val, v, ok)
		}
	}
}

func TestKeyZeroWorks(t *testing.T) {
	s := newStore(t, 16, 8)
	if err := s.Insert(0, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	if _, err := s.Get(0, buf[:]); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[7] != 8 {
		t.Fatalf("key 0 value: %v", buf)
	}
}

func TestTableFull(t *testing.T) {
	s := newStore(t, 4, 8) // 4 slots
	var err error
	for k := uint64(0); k < 10; k++ {
		if err = s.Insert(k, []byte{byte(k)}); err != nil {
			break
		}
	}
	if err != ErrFull {
		t.Fatalf("overfull insert: %v", err)
	}
}

func TestLockUnlockCommit(t *testing.T) {
	s := newStore(t, 16, 8)
	s.Insert(7, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	v0, _ := s.Version(7)

	if err := s.Lock(7); err != nil {
		t.Fatal(err)
	}
	// Second lock fails — OCC abort path.
	if err := s.Lock(7); err != ErrLocked {
		t.Fatalf("double lock: %v", err)
	}
	// Version word shows the lock remotely.
	ver, _ := s.Version(7)
	if !Locked(ver) {
		t.Fatal("lock bit not visible")
	}
	// Commit: new value, version bumped, unlocked.
	if err := s.Unlock(7, []byte{9, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	v1, err := s.Get(7, buf[:])
	if err != nil || buf[0] != 9 {
		t.Fatalf("after commit: %v %v", err, buf)
	}
	if VersionOf(v1) == VersionOf(v0) {
		t.Fatal("version not bumped by commit")
	}
	if Locked(v1) {
		t.Fatal("still locked after commit")
	}
}

func TestUnlockAbortKeepsVersion(t *testing.T) {
	s := newStore(t, 16, 8)
	s.Insert(3, []byte{5, 0, 0, 0, 0, 0, 0, 0})
	v0, _ := s.Version(3)
	s.Lock(3)
	if err := s.Unlock(3, nil); err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Version(3)
	if v1 != v0 {
		t.Fatalf("abort changed version: %d → %d", v0, v1)
	}
	var buf [8]byte
	s.Get(3, buf[:])
	if buf[0] != 5 {
		t.Fatal("abort changed value")
	}
}

func TestGetOnLockedReturnsErrLocked(t *testing.T) {
	// Get must not spin on a locked key: the OCC execution phase aborts,
	// and a spinning handler would deadlock the dispatcher against the
	// lock holder's commit.
	s := newStore(t, 16, 8)
	s.Insert(4, make([]byte, 8))
	s.Lock(4)
	var buf [8]byte
	ver, err := s.Get(4, buf[:])
	if err != ErrLocked {
		t.Fatalf("get on locked key: %v", err)
	}
	if !Locked(ver) {
		t.Fatal("returned version should carry the lock bit")
	}
	s.Unlock(4, nil)
	if _, err := s.Get(4, buf[:]); err != nil {
		t.Fatalf("get after unlock: %v", err)
	}
}

func TestUnlockUnlocked(t *testing.T) {
	s := newStore(t, 16, 8)
	s.Insert(1, make([]byte, 8))
	if err := s.Unlock(1, nil); err == nil {
		t.Fatal("unlock of unlocked key succeeded")
	}
}

func TestVersionOffsetMatchesStore(t *testing.T) {
	// The offset handed to one-sided validation must point at the same
	// word Version() reads.
	mem := NewMem(ArenaSize(64, 8))
	s, _ := New(mem, 64, 8)
	s.Insert(11, make([]byte, 8))
	off, err := s.VersionOffset(11)
	if err != nil {
		t.Fatal(err)
	}
	direct := mem.Load64(off)
	viaAPI, _ := s.Version(11)
	if direct != viaAPI {
		t.Fatalf("offset word %d != API word %d", direct, viaAPI)
	}
	s.Lock(11)
	if !Locked(mem.Load64(off)) {
		t.Fatal("lock not visible through raw offset")
	}
	s.Unlock(11, nil)
}

func TestApplyBumpsVersion(t *testing.T) {
	s := newStore(t, 16, 8)
	s.Insert(2, make([]byte, 8))
	v0, _ := s.Version(2)
	if err := s.Apply(2, []byte{7, 7, 7, 7, 7, 7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Version(2)
	if VersionOf(v1) <= VersionOf(v0) {
		t.Fatal("apply did not bump version")
	}
	// Apply also creates missing keys (replica catch-up).
	if err := s.Apply(999, []byte{1, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	if _, err := s.Get(999, buf[:]); err != nil || buf[0] != 1 {
		t.Fatalf("applied key missing: %v %v", err, buf)
	}
}

func TestOversizedValueRejected(t *testing.T) {
	s := newStore(t, 16, 8)
	if err := s.Insert(1, make([]byte, 9)); err == nil {
		t.Fatal("oversized insert accepted")
	}
	s.Insert(1, make([]byte, 8))
	s.Lock(1)
	if err := s.Unlock(1, make([]byte, 9)); err == nil {
		t.Fatal("oversized unlock accepted")
	}
	s.Unlock(1, nil)
}

func TestConcurrentLockExclusion(t *testing.T) {
	// Over an rnic arena (real CAS), concurrent lockers must serialize:
	// each successful Lock→Unlock(+1) pair increments exactly once.
	fab := fabric.New(fabric.Config{})
	dev, err := rnic.NewDevice(fab, rnic.Config{Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	mr, err := dev.RegisterMR(ArenaSize(64, 8), rnic.PermRemoteRead)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(mr, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	s.Insert(5, make([]byte, 8))

	const nGoroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [8]byte
			for i := 0; i < perG; i++ {
				for s.Lock(5) != nil {
				}
				if err := s.GetLocked(5, buf[:]); err != nil {
					t.Error(err)
					return
				}
				binary.LittleEndian.PutUint64(buf[:], binary.LittleEndian.Uint64(buf[:])+1)
				if err := s.Unlock(5, buf[:]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var buf [8]byte
	s.Get(5, buf[:])
	if got := binary.LittleEndian.Uint64(buf[:]); got != nGoroutines*perG {
		t.Fatalf("counter = %d, want %d", got, nGoroutines*perG)
	}
}

func TestInsertGetProperty(t *testing.T) {
	s := newStore(t, 1024, 16)
	seen := map[uint64][]byte{}
	f := func(key uint64, val []byte) bool {
		key %= 1 << 40
		if len(val) > 16 {
			val = val[:16]
		}
		full := make([]byte, 16)
		copy(full, val)
		if err := s.Insert(key, full); err != nil {
			return err == ErrFull
		}
		seen[key] = full
		got := make([]byte, 16)
		if _, err := s.Get(key, got); err != nil {
			return false
		}
		return bytes.Equal(got, full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// Everything inserted stays retrievable.
	for k, want := range seen {
		got := make([]byte, 16)
		if _, err := s.Get(k, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("key %d lost or corrupted", k)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s, _ := New(NewMem(ArenaSize(1<<16, 8)), 1<<16, 8)
	for k := uint64(0); k < 1<<15; k++ {
		s.Insert(k, make([]byte, 8))
	}
	var buf [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(uint64(i)&(1<<15-1), buf[:]) //nolint:errcheck
	}
}

func BenchmarkLockUnlock(b *testing.B) {
	s, _ := New(NewMem(ArenaSize(1024, 8)), 1024, 8)
	s.Insert(1, make([]byte, 8))
	val := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lock(1)        //nolint:errcheck
		s.Unlock(1, val) //nolint:errcheck
	}
}
