// Package record implements Silo's record layout and version-validated
// access protocol (§4.3, §4.5).
//
// A record is three words: a TID word (which doubles as the record's latch),
// a previous-version pointer supporting snapshot transactions, and a pointer
// to the buffer holding the record's data — 24 bytes, where the paper reports
// 32 on its system. A buffer is a 4-byte header word, then the value bytes.
// The header holds the value's length and the buffer's class, which fixes
// the buffer's size for as long as it lives: a buffer is only ever refilled
// with a value of its own class (see SetDataLocked), so the length a header
// states never reaches past the buffer holding it. A buffer of a class is a
// class-sized piece of memory: either its own allocation, or one of many
// pieces carved from a chunk (Carve) — the engine's per-worker arena carves
// its slabs, and recovery the values of the rows it rebuilds — and a chunk
// lives as long as any of its pieces does. An empty value (and an absent
// record) has no buffer at all.
//
// Committed transactions usually modify record data in place; readers
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
// Go specifics: the TID word, the previous-version pointer, the data pointer
// and each buffer header use sync/atomic (sequentially consistent — strictly
// stronger than the paper's compiler fences on TSO). The data bytes
// themselves are deliberately read without synchronization, exactly as in
// the paper. What keeps such a racy read memory-safe is one invariant: a
// reader loads the data pointer once and reads only inside the allocation
// it points to, as far as that allocation's own header says — so a buffer
// swapped out, refilled in place or recycled to another record under the
// reader yields, at worst, bytes of the wrong value, and the double-read of
// the TID word rejects them. The copy goes through race.AppendValidated, so
// race builds run this same protocol.
package record

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"

	"silo/internal/race"
	"silo/internal/tid"
)

// Record is a single record version. Records may be laid out many to a
// slice (recovery rebuilds a span of rows that way), so the zero-size field
// that makes them incomparable comes first: trailing, it would pad the
// record to 32 bytes.
type Record struct {
	_    [0]func()              // not comparable; records are identified by pointer
	word atomic.Uint64          // TID word (latch + version + status)
	prev atomic.Pointer[Record] // previous version (snapshots, §4.9)
	data atomic.Pointer[uint32] // header of the value's buffer; nil for an empty value
}

// Buffer classes. A header word holds the value length above classBits and
// the buffer's class below. Classes step by 8 bytes up to 256, then by an
// eighth of each doubling — 288, 320, … 512, 576, … — up to 32 KiB, so a
// buffer wastes at most 7 bytes or an eighth of what it holds (Go's own
// size classes keep the same bound); a value too long for the top class
// gets a buffer of its own size, of exactClass, whose length — too wide for
// the header — sits in a second word after it. Buffers of a class are
// recycled (by the engine's per-worker arena); exact ones never are.
const (
	hdrBytes   = 4
	classBits  = 7
	classMask  = 1<<classBits - 1
	exactClass = classMask
	stepBytes  = 8 // the step of the classes up to stepTop
	stepLog    = 8 // stepTop is 1<<stepLog bytes …
	stepTop    = 1 << stepLog
	topLog     = 15 // … and the top class 1<<topLog
	eighthLog  = 3  // 1<<eighthLog classes per doubling above stepTop

	// NumClasses is the number of recyclable buffer classes.
	NumClasses = stepTop/stepBytes + (topLog-stepLog)<<eighthLog
)

// BufClass returns the class of the buffer that holds an n-byte value, or
// NumClasses when the value is too long for every class.
func BufClass(n int) int {
	need := hdrBytes + n
	if need <= stepTop {
		return (need+stepBytes-1)/stepBytes - 1
	}
	// need−1 lies in [2^e, 2^(e+1)); its top four bits pick the eighth.
	m := uint(need - 1)
	e := bits.Len(m) - 1
	c := stepTop/stepBytes + (e-stepLog)<<eighthLog + int(m>>(e-eighthLog)) - 1<<eighthLog
	return min(c, NumClasses)
}

// BufSize returns the size in bytes, header included, of a class-c buffer.
func BufSize(c int) int {
	if c < stepTop/stepBytes {
		return stepBytes * (c + 1)
	}
	// Class k past the steps is (9 + k%8) eighths of 2^(stepLog + k/8).
	k := c - stepTop/stepBytes
	return (1<<eighthLog + k%(1<<eighthLog) + 1) << (stepLog + k>>eighthLog - eighthLog)
}

// Carve cuts a never-used class-c buffer (c < NumClasses) from the front of
// *chunk, which it first replaces with a fresh chunk of next bytes — or of
// the buffer's size, if larger — when too little is left. Every buffer size
// is a multiple of 8, so each piece's header stays aligned.
func Carve(chunk *[]byte, c, next int) []byte {
	sz := BufSize(c)
	if len(*chunk) < sz {
		*chunk = make([]byte, max(next, sz))
	}
	buf := (*chunk)[:sz:sz]
	*chunk = (*chunk)[sz:]
	return buf
}

// ClassOf returns the class a recyclable buffer's header names.
func ClassOf(buf []byte) int {
	return int(atomic.LoadUint32((*uint32)(unsafe.Pointer(&buf[0]))) & classMask)
}

// view returns the value in the buffer whose header p points to. It reads
// the header once and only as far as it says: every length a class-c header
// ever states fits a class-c buffer, and an exact buffer is never reused.
func view(p *uint32) []byte {
	if p == nil {
		return nil
	}
	h := atomic.LoadUint32(p)
	data := unsafe.Add(unsafe.Pointer(p), hdrBytes)
	n := h >> classBits
	if h&classMask == exactClass {
		n = *(*uint32)(data)
		data = unsafe.Add(data, 4)
	}
	return unsafe.Slice((*byte)(data), n)
}

// New allocates a record with the given word and a copy of value.
func New(w tid.Word, value []byte) *Record {
	r := &Record{}
	r.Init(w, value, nil)
	return r
}

// Init sets up a fresh record — a zero Record, allocated alone by New or
// many to a slice — with the given word and a copy of value in raw, a
// buffer as SetDataLocked takes it (nil allocates one).
func (r *Record) Init(w tid.Word, value, raw []byte) {
	r.word.Store(uint64(w))
	r.SetDataLocked(value, raw)
}

// NewAbsent allocates the placeholder installed by an insert before commit:
// TID 0, absent and latest bits set (§4.5), and no data.
func NewAbsent() *Record {
	r := &Record{}
	r.word.Store(uint64(tid.Word(0).WithAbsent(true).WithLatest(true)))
	return r
}

// Word returns the current TID word (a single atomic load).
func (r *Record) Word() tid.Word { return tid.Word(r.word.Load()) }

// Prev returns the previous version, or nil.
func (r *Record) Prev() *Record { return r.prev.Load() }

// SetPrev links the previous-version pointer.
func (r *Record) SetPrev(p *Record) { r.prev.Store(p) }

// DataUnsafe returns the current value without validation, aliasing the
// record's buffer. It is safe only when the caller holds the record lock or
// the record is immutable (e.g., a superseded snapshot version).
func (r *Record) DataUnsafe() []byte { return view(r.data.Load()) }

// Read performs the version-validated read protocol. It appends the record
// data to buf (which may be nil) and returns the extended buffer along with
// the TID word observed for validation. Absent records return buf emptied
// (so a caller's scratch buffer survives a tombstone) with the word;
// callers must still register the word in their read set so Phase 2
// catches a concurrent insert.
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
			return buf[:0], w1
		}
		val = race.AppendValidated(buf[:0], view(r.data.Load()))
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

// TryOverwriteLocked copies value into the existing buffer if the lengths
// match (the paper's in-place overwrite) and reports success. Caller must
// hold the lock bit.
func (r *Record) TryOverwriteLocked(value []byte) bool {
	cur := view(r.data.Load())
	if len(cur) != len(value) {
		return false
	}
	copy(cur, value)
	return true
}

// SetDataLocked installs a copy of value in a fresh buffer and returns the
// buffer it replaced when that one can be recycled — whole, header
// included — and nil otherwise. raw, when not nil, is the buffer to fill: of
// exactly BufSize(BufClass(len(value))) bytes, and either never used or
// returned by an earlier SetDataLocked, so that its allocation has always
// been of that class; nil makes SetDataLocked allocate one. An empty value
// takes no buffer. Caller must hold the lock bit (or own the record
// outright, as Init does).
func (r *Record) SetDataLocked(value []byte, raw []byte) (old []byte) {
	if p := r.data.Load(); p != nil {
		if c := int(atomic.LoadUint32(p) & classMask); c < NumClasses {
			old = unsafe.Slice((*byte)(unsafe.Pointer(p)), BufSize(c))
		}
	}
	n := len(value)
	if n == 0 {
		r.data.Store(nil)
		return old
	}
	c := BufClass(n)
	var hdr uint32
	if c < NumClasses {
		if raw == nil {
			raw = make([]byte, BufSize(c))
		}
		hdr = uint32(n)<<classBits | uint32(c)
		copy(raw[hdrBytes:hdrBytes+n], value)
	} else {
		raw = make([]byte, hdrBytes+4+n)
		hdr = exactClass
		*(*uint32)(unsafe.Pointer(&raw[hdrBytes])) = uint32(n)
		copy(raw[hdrBytes+4:], value)
	}
	p := (*uint32)(unsafe.Pointer(&raw[0]))
	atomic.StoreUint32(p, hdr)
	r.data.Store(p)
	return old
}

// CopyForSnapshot allocates an immutable copy of the record's current
// version (word w, which the caller read under the lock) for the snapshot
// version chain, linking it to the record's current previous version. The
// latest bit of the copy is cleared: it is superseded by construction.
func (r *Record) CopyForSnapshot(w tid.Word) *Record {
	c := New(w.WithLatest(false).WithoutLock(), r.DataUnsafe())
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
func (r *Record) DataLen() int { return len(view(r.data.Load())) }

// BufAddr returns the address of the record's value buffer, 0 for an
// empty value: a prefetch hint, never turned back into a pointer.
func (r *Record) BufAddr() uintptr { return uintptr(unsafe.Pointer(r.data.Load())) }

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
