package record

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"silo/internal/tid"
)

func TestNewAndRead(t *testing.T) {
	w := tid.Make(3, 7).WithLatest(true)
	r := New(w, []byte("hello"))
	val, got := r.Read(nil)
	if !bytes.Equal(val, []byte("hello")) {
		t.Fatalf("val=%q", val)
	}
	if got != w {
		t.Fatalf("word=%v want %v", got, w)
	}
}

func TestNewAbsent(t *testing.T) {
	r := NewAbsent()
	w := r.Word()
	if !w.Absent() || !w.Latest() || w.TID() != 0 {
		t.Fatalf("placeholder word=%v", w)
	}
	val, _ := r.Read(nil)
	if val != nil {
		t.Fatalf("absent read returned %q", val)
	}
}

func TestLockUnlock(t *testing.T) {
	r := New(tid.Make(1, 1), []byte("x"))
	pre := r.Lock()
	if pre.Locked() {
		t.Fatal("pre-lock word has lock bit")
	}
	if !r.Word().Locked() {
		t.Fatal("record not locked")
	}
	if _, ok := r.TryLock(); ok {
		t.Fatal("TryLock succeeded while locked")
	}
	next := tid.Make(1, 2).WithLatest(true)
	r.Unlock(next)
	if got := r.Word(); got != next {
		t.Fatalf("after unlock word=%v want %v", got, next)
	}
}

func TestOverwriteSameLength(t *testing.T) {
	r := New(tid.Make(1, 1).WithLatest(true), []byte("aaaa"))
	r.Lock()
	if !r.TryOverwriteLocked([]byte("bbbb")) {
		t.Fatal("same-length overwrite refused")
	}
	if r.TryOverwriteLocked([]byte("ccc")) {
		t.Fatal("different-length overwrite accepted")
	}
	r.Unlock(tid.Make(1, 2).WithLatest(true))
	val, _ := r.Read(nil)
	if string(val) != "bbbb" {
		t.Fatalf("val=%q", val)
	}
}

func TestSetDataReturnsOld(t *testing.T) {
	r := New(tid.Make(1, 1), []byte("old!"))
	r.Lock()
	old := r.SetDataLocked([]byte("newer"), nil)
	if len(old) != BufSize(BufClass(4)) || ClassOf(old) != BufClass(4) {
		t.Fatalf("replaced buffer of %d bytes, class %d; want the whole class-%d buffer", len(old), ClassOf(old), BufClass(4))
	}
	r.Unlock(tid.Make(1, 2).WithLatest(true))
	val, _ := r.Read(nil)
	if string(val) != "newer" {
		t.Fatalf("val=%q", val)
	}
	// The replaced buffer refills with any value of its class.
	r.Lock()
	if again := r.SetDataLocked([]byte("abc"), old); again == nil {
		t.Fatal("the second buffer was not handed back")
	}
	r.Unlock(tid.Make(1, 3).WithLatest(true))
	if val, _ := r.Read(nil); string(val) != "abc" {
		t.Fatalf("val=%q", val)
	}
}

// TestBufClasses pins the class table: 8-byte steps up to 256 bytes, a
// 100-byte value in 104 (with its 4-byte header) and a 310-byte TPC-C stock
// row in 320, eight classes per doubling up to 32 KiB, and beyond that no
// class. Every value up to the top class wastes at most max(7, n/8) bytes
// of its buffer.
func TestBufClasses(t *testing.T) {
	for _, c := range []struct{ n, size int }{
		{1, 8}, {4, 8}, {5, 16}, {12, 16}, {13, 24}, {100, 104}, {252, 256}, {253, 288},
		{310, 320}, {508, 512}, {509, 576}, {1020, 1024}, {1021, 1152}, {32764, 32768},
	} {
		if got := BufSize(BufClass(c.n)); got != c.size {
			t.Errorf("a %d-byte value takes a %d-byte buffer, want %d", c.n, got, c.size)
		}
	}
	for n := 1; n <= BufSize(NumClasses-1)-hdrBytes; n++ {
		if slack := BufSize(BufClass(n)) - hdrBytes - n; slack < 0 || slack > max(7, n/8) {
			t.Fatalf("a %d-byte value leaves %d bytes of its %d-byte buffer unused", n, slack, BufSize(BufClass(n)))
		}
	}
	if BufClass(32765) != NumClasses {
		t.Errorf("a value beyond the top class has class %d, want %d", BufClass(32765), NumClasses)
	}
	for c := 1; c < NumClasses; c++ {
		if BufSize(c) <= BufSize(c-1) || BufClass(BufSize(c)-hdrBytes) != c || BufClass(BufSize(c-1)-hdrBytes+1) != c {
			t.Fatalf("class %d (%d bytes) does not follow class %d (%d bytes)", c, BufSize(c), c-1, BufSize(c-1))
		}
	}
	if NumClasses > exactClass {
		t.Fatalf("%d classes do not fit the header's %d class bits", NumClasses, classBits)
	}
}

// TestValueSizes round-trips the edges of the buffer layout: an empty value
// (no buffer, none handed back), a value filling its class exactly, and
// values too long for any class, which are never handed back for reuse.
func TestValueSizes(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 12, 13, 108, 252, 253, 1021, 32764, 32765, 100 << 10} {
		v := make([]byte, n)
		for i := range v {
			v[i] = byte(i * 7)
		}
		r := New(tid.Make(1, 1).WithLatest(true), v)
		clear(v) // New copied it
		if got, _ := r.Read(nil); len(got) != n || r.DataLen() != n {
			t.Fatalf("%d-byte value read back as %d bytes (DataLen %d)", n, len(got), r.DataLen())
		}
		for i, b := range r.DataUnsafe() {
			if b != byte(i*7) {
				t.Fatalf("%d-byte value: byte %d is %d", n, i, b)
			}
		}
		r.Lock()
		old := r.SetDataLocked([]byte("x"), nil)
		if wantOld := n > 0 && BufClass(n) < NumClasses; (old != nil) != wantOld {
			t.Fatalf("%d-byte value: replaced buffer handed back %v, want %v", n, old != nil, wantOld)
		}
		r.Unlock(tid.Make(1, 2).WithLatest(true))
	}
}

// TestWrongClassBufferPanics: a buffer smaller than the value's class — one
// an arena recycled into a larger class — is refused rather than overrun.
func TestWrongClassBufferPanics(t *testing.T) {
	r := New(tid.Make(1, 1), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("a 32-byte value went into a 16-byte buffer")
		}
	}()
	r.SetDataLocked(make([]byte, 28), make([]byte, BufSize(0)))
}

func TestCopyForSnapshot(t *testing.T) {
	r := New(tid.Make(2, 5).WithLatest(true), []byte("v1"))
	prev := New(tid.Make(1, 1), []byte("v0"))
	r.SetPrev(prev)
	w := r.Lock()
	c := r.CopyForSnapshot(w)
	r.Unlock(w)
	if c.Word().Latest() {
		t.Fatal("snapshot copy claims to be latest")
	}
	if c.Word().TID() != w.TID() {
		t.Fatal("snapshot copy TID mismatch")
	}
	if string(c.DataUnsafe()) != "v1" {
		t.Fatal("snapshot copy data mismatch")
	}
	if c.Prev() != prev {
		t.Fatal("snapshot copy chain broken")
	}
	// Mutating the original must not affect the copy.
	r.Lock()
	r.TryOverwriteLocked([]byte("v2"))
	r.Unlock(tid.Make(3, 1).WithLatest(true))
	if string(c.DataUnsafe()) != "v1" {
		t.Fatal("snapshot copy aliased original data")
	}
}

// TestSeqlockConsistency is the core §4.5 protocol test: one writer
// repeatedly installs values whose bytes are all equal; concurrent
// validated readers must never observe a torn (mixed-byte) value.
func TestSeqlockConsistency(t *testing.T) {
	const size = 64
	mk := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
	r := New(tid.Make(1, 1).WithLatest(true), mk(0))

	var stop atomic.Bool
	var torn atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for !stop.Load() {
				val, w := r.Read(buf)
				buf = val[:0]
				if w.Absent() {
					continue
				}
				for i := 1; i < len(val); i++ {
					if val[i] != val[0] {
						torn.Add(1)
						return
					}
				}
			}
		}()
	}
	seq := uint64(2)
	for i := 0; i < 20000; i++ {
		w := r.Lock()
		r.TryOverwriteLocked(mk(byte(i)))
		seq++
		r.Unlock(tid.Make(w.Epoch(), seq).WithLatest(true))
	}
	stop.Store(true)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn reads observed", torn.Load())
	}
}

// TestSeqlockWithResize swaps buffers of two classes under concurrent
// readers, recycling each replaced buffer the next time its class comes
// round — the way the engine's arena does — so a reader often holds a
// buffer that is being refilled, or that already belongs to the other
// value length. A validated read must still see one whole value.
func TestSeqlockWithResize(t *testing.T) {
	r := New(tid.Make(1, 1).WithLatest(true), bytes.Repeat([]byte{0}, 16))
	var stop atomic.Bool
	var wg sync.WaitGroup
	var bad atomic.Uint64
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for !stop.Load() {
				val, w := r.Read(buf)
				buf = val[:0]
				_ = w
				if len(val) != 16 && len(val) != 64 {
					bad.Add(1)
					return
				}
				for i := 1; i < len(val); i++ {
					if val[i] != val[0] {
						bad.Add(1)
						return
					}
				}
			}
		}()
	}
	seq := uint64(2)
	free := map[int][][]byte{}
	for i := 0; i < 10000; i++ {
		w := r.Lock()
		n := 16
		if i%2 == 0 {
			n = 64
		}
		var raw []byte
		if l := free[BufClass(n)]; len(l) > 0 {
			raw, free[BufClass(n)] = l[len(l)-1], l[:len(l)-1]
		}
		if old := r.SetDataLocked(bytes.Repeat([]byte{byte(i)}, n), raw); old != nil {
			free[ClassOf(old)] = append(free[ClassOf(old)], old)
		}
		seq++
		r.Unlock(tid.Make(w.Epoch(), seq).WithLatest(true))
	}
	stop.Store(true)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d inconsistent reads", bad.Load())
	}
}

// TestLockContention verifies mutual exclusion of the lock bit.
func TestLockContention(t *testing.T) {
	r := New(tid.Make(1, 1), []byte{0})
	var counter int // protected by the record lock
	var wg sync.WaitGroup
	const (
		goroutines = 8
		per        = 1000
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w := r.Lock()
				counter++
				r.Unlock(w)
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*per {
		t.Fatalf("counter=%d want %d (lost updates ⇒ lock broken)", counter, goroutines*per)
	}
}

func TestReadWordSpinsWhileLocked(t *testing.T) {
	r := New(tid.Make(1, 1).WithLatest(true), []byte("x"))
	w := r.Lock()
	done := make(chan tid.Word)
	go func() { done <- r.ReadWord() }()
	select {
	case <-done:
		t.Fatal("ReadWord returned while locked")
	default:
	}
	release := tid.Make(1, 9).WithLatest(true)
	r.Unlock(release)
	if got := <-done; got != release {
		t.Fatalf("ReadWord=%v want %v", got, release)
	}
	_ = w
}

// TestCutVersionAgainstConcurrentCopies: a writer keeps preserving the
// record's current version (copy the chain link, publish the copy) while
// a reclaimer cuts every preserved version as soon as it hears of it —
// often the very version the writer's next copy is linking to. A copy
// published just after its predecessor was cut re-attaches that one
// version until the copy is cut in turn, so the chain never grows past
// the writer's lead, and once the last copy is cut nothing is left.
func TestCutVersionAgainstConcurrentCopies(t *testing.T) {
	r := New(tid.Make(1, 1).WithLatest(true), []byte("v"))
	const versions, lead = 20000, 8
	preserved := make(chan *Record, lead)
	go func() {
		defer close(preserved)
		for i := uint64(2); i < versions+2; i++ {
			w := r.Lock()
			c := r.CopyForSnapshot(w)
			r.SetPrev(c)
			r.Unlock(tid.Make(i, 1).WithLatest(true))
			preserved <- c
		}
	}()
	chain := func() (n int) {
		for p := r.Prev(); p != nil; p = p.Prev() {
			n++
		}
		return n
	}
	for c := range preserved {
		r.CutVersion(c)
		// Uncut: the copies in the channel, the one being sent, the one
		// being made, and one straggler behind the oldest of them.
		if n := chain(); n > lead+3 {
			t.Fatalf("%d versions behind the record with the reclaimer at most %d behind", n, lead+2)
		}
	}
	if n := chain(); n != 0 {
		t.Fatalf("%d versions still linked after every one was cut", n)
	}
}
