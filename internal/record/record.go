// Package record implements Silo's record layout and version-validated
// access protocol (§4.3, §4.5).
//
// A record holds a TID word (which doubles as the record's latch), a
// previous-version pointer supporting snapshot transactions, and the record
// data. Committed transactions usually modify record data in place; readers
// therefore run a seqlock-style validation protocol:
//
//	(a) read the TID word, spinning until the lock bit is clear,
//	(b) check status bits,
//	(c) read the data,
//	(d) fence (the atomic re-load below orders the data reads),
//	(e) read the TID word again; if it changed, retry.
//
// Writers, while holding the lock bit, (a) update the data, (b) fence, and
// (c) store the new TID and release the lock in one atomic store, so a
// reader that observes a released lock observes both the new data and the
// new TID.
//
// Go specifics: the TID word and previous-version pointer use sync/atomic
// (sequentially consistent — strictly stronger than the paper's compiler
// fences on TSO). The data bytes themselves are deliberately read without
// synchronization, exactly as in the paper; the double-read of the TID word
// makes the race benign. When a new value has a different length than the
// old, the data buffer is swapped through an atomic pointer rather than
// overwritten, so slice headers are never torn.
package record

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"silo/internal/tid"
)

// Record is a single record version. Excluding data, records are three words
// plus the data pointer (the paper reports 32 bytes on its system).
type Record struct {
	word atomic.Uint64          // TID word (latch + version + status)
	prev atomic.Pointer[Record] // previous version (snapshots, §4.9)
	data atomic.Pointer[[]byte] // current value bytes
	_    [0]func()              // not comparable; records are identified by pointer
}

// New allocates a record with the given word and value. The value slice is
// owned by the record afterwards.
func New(w tid.Word, value []byte) *Record {
	r := &Record{}
	r.word.Store(uint64(w))
	r.data.Store(&value)
	return r
}

// NewAbsent allocates the placeholder installed by an insert before commit:
// TID 0, absent and latest bits set (§4.5).
func NewAbsent() *Record {
	var empty []byte
	r := &Record{}
	r.word.Store(uint64(tid.Word(0).WithAbsent(true).WithLatest(true)))
	r.data.Store(&empty)
	return r
}

// Word returns the current TID word (a single atomic load).
func (r *Record) Word() tid.Word { return tid.Word(r.word.Load()) }

// Prev returns the previous version, or nil.
func (r *Record) Prev() *Record { return r.prev.Load() }

// SetPrev links the previous-version pointer.
func (r *Record) SetPrev(p *Record) { r.prev.Store(p) }

// DataUnsafe returns the current data buffer without validation. It is safe
// only when the caller holds the record lock or the record is immutable
// (e.g., a superseded snapshot version).
func (r *Record) DataUnsafe() []byte { return *r.data.Load() }

// Read performs the version-validated read protocol. It appends the record
// data to buf (which may be nil) and returns the extended buffer along with
// the TID word observed for validation. Absent records return a nil value
// with the word; callers must still register the word in their read set so
// Phase 2 catches a concurrent insert.
//
// Read spins while the record is locked, as the paper prescribes for access
// outside the commit protocol.
func (r *Record) Read(buf []byte) (val []byte, w tid.Word) {
	for spins := 0; ; spins++ {
		w1 := tid.Word(r.word.Load())
		if w1.Locked() {
			backoff(spins)
			continue
		}
		if w1.Absent() {
			return nil, w1
		}
		p := r.data.Load()
		val = append(buf[:0], *p...)
		w2 := tid.Word(r.word.Load())
		if w1 == w2 {
			return val, w1
		}
		backoff(spins)
	}
}

// ReadWord waits for the record to be unlocked and returns the word. It is
// the read protocol without the data copy, for callers that only need
// status (e.g., validating an absent record).
func (r *Record) ReadWord() tid.Word {
	for spins := 0; ; spins++ {
		w := tid.Word(r.word.Load())
		if !w.Locked() {
			return w
		}
		backoff(spins)
	}
}

// TryLock attempts to set the lock bit and reports whether it succeeded,
// returning the pre-lock word on success.
func (r *Record) TryLock() (tid.Word, bool) {
	w := r.word.Load()
	if w&tid.LockBit != 0 {
		return 0, false
	}
	if r.word.CompareAndSwap(w, w|tid.LockBit) {
		return tid.Word(w), true
	}
	return 0, false
}

// Lock spins until it acquires the record's lock bit and returns the
// pre-lock word. Deadlock freedom is the caller's concern: the commit
// protocol locks records in a deterministic global order (§4.4).
func (r *Record) Lock() tid.Word {
	for spins := 0; ; spins++ {
		if w, ok := r.TryLock(); ok {
			return w
		}
		backoff(spins)
	}
}

// Unlock releases the lock, publishing the given word (which must not have
// its lock bit set). The single atomic store updates the record's version
// and releases the latch at once.
func (r *Record) Unlock(w tid.Word) {
	r.word.Store(uint64(w.WithoutLock()))
}

// SetDataLocked installs a new value while the caller holds the lock bit.
// If overwrite is true and the new value has the same length as the old,
// the bytes are copied in place (the paper's in-place overwrite
// optimization); otherwise a fresh buffer is swapped in through the atomic
// data pointer. It reports whether the update reused the existing buffer.
func (r *Record) SetDataLocked(value []byte, overwrite bool) bool {
	p := r.data.Load()
	if overwrite && len(*p) == len(value) {
		copy(*p, value)
		return true
	}
	buf := make([]byte, len(value))
	copy(buf, value)
	r.data.Store(&buf)
	return false
}

// TryOverwriteLocked copies value into the existing buffer if the lengths
// match (the in-place overwrite fast path) and reports success. Caller must
// hold the lock bit.
func (r *Record) TryOverwriteLocked(value []byte) bool {
	p := r.data.Load()
	if len(*p) != len(value) {
		return false
	}
	copy(*p, value)
	return true
}

// SetDataPointerLocked installs an already-allocated buffer and returns the
// buffer it replaced (for allocator recycling). Caller must hold the lock
// bit.
func (r *Record) SetDataPointerLocked(buf []byte) (old []byte) {
	old = *r.data.Load()
	r.data.Store(&buf)
	return old
}

// CopyForSnapshot allocates an immutable copy of the record's current
// version (word w, which the caller read under the lock) for the snapshot
// version chain, linking it to the record's current previous version. The
// latest bit of the copy is cleared: it is superseded by construction.
func (r *Record) CopyForSnapshot(w tid.Word) *Record {
	data := *r.data.Load()
	buf := make([]byte, len(data))
	copy(buf, data)
	c := New(w.WithLatest(false).WithoutLock(), buf)
	c.prev.Store(r.prev.Load())
	return c
}

// CutVersion detaches the superseded version v, and with it every older
// version, from r's chain, by clearing the link that leads into v. It is
// the reclamation step for v: the caller has established that no snapshot
// can need v anymore, and the versions behind it are older still. A
// writer may be preserving r's current version concurrently, and
// CopyForSnapshot copies r's link before the new copy is published; the
// walk therefore starts over after every cut, and ends only once a pass
// finds no link into v. A copy published after that last pass keeps v
// reachable until the copy itself is cut — one version, for one
// reclamation round.
func (r *Record) CutVersion(v *Record) {
	for p := r; p != nil; {
		next := p.prev.Load()
		if next == v {
			p.prev.CompareAndSwap(v, nil)
			p = r
			continue
		}
		p = next
	}
}

// DataLen returns the current value length (unvalidated; for statistics).
func (r *Record) DataLen() int { return len(*r.data.Load()) }

// Addr returns the record's address for the commit protocol's global lock
// ordering (Silo uses pointer addresses of records).
func (r *Record) Addr() uintptr { return uintptr(unsafe.Pointer(r)) }

// backoff yields the processor with increasing eagerness. Short spins stay
// on-CPU; longer waits let the Go scheduler run the lock holder (essential
// on machines with fewer cores than workers).
func backoff(spins int) {
	if spins < 8 {
		return
	}
	runtime.Gosched()
}
