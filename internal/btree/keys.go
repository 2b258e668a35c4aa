package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// Keys in slot form. A node keeps its keys in three parallel arrays: bytes
// 0–7 of every key as one big-endian, zero-padded word, bytes 8–15 as a
// second, and the key lengths. Comparing the words orders keys as
// bytes.Compare orders them up to a tie on all 16 bytes, and a tie is settled
// by the lengths unless both keys go on, so a search reads the first word
// array — two cache lines — and touches a suffix only on a 16-byte tie.
//
// The rest of a key longer than 16 bytes (its suffix) lives out of line, as
// Masstree keeps key suffixes in a block of their own: a node has one
// pointer to a suffix block, an array of a suffix pointer per slot, which it
// allocates under its lock when it first receives a long key and keeps for
// life. A node that never holds one — every node of a tree whose keys fit 16
// bytes, as YCSB's and TPC-C's do — pays one nil word for it.
//
// A suffix is an immutable allocation that carries its own length, and it
// moves between slots, nodes and separators by pointer. A racy reader loads
// the block pointer, then the slot's suffix pointer, both atomically. It may
// pair one key's length with another key's suffix, or with none when the
// block is not yet published; it reads a suffix only as far as the suffix
// says, and the node-version re-check rejects the pair.
const inlineBytes = 16

// slots holds a node's keys; key i is slot i of every array.
type slots struct {
	w0  [fanout]uint64 // key bytes 0–7: what a search reads first
	w1  [fanout]uint64 // key bytes 8–15
	n   [fanout]uint8  // key length
	sfx unsafe.Pointer // *suffixes; nil until the node first holds a key of more than 16 bytes
}

// suffixes is a node's suffix block: slot i's suffix (see newSuffix), nil
// for a key of ≤ 16 bytes.
type suffixes [fanout]unsafe.Pointer

// block returns the node's suffix block, or nil if it has none.
func (s *slots) block() *suffixes { return (*suffixes)(atomic.LoadPointer(&s.sfx)) }

// suffixAt loads slot i's suffix pointer: the block pointer, then the slot.
func (s *slots) suffixAt(i int) unsafe.Pointer {
	if b := s.block(); b != nil {
		return atomic.LoadPointer(&b[i])
	}
	return nil
}

// skey is one key as a slot holds it.
type skey struct {
	w0, w1 uint64
	n      uint8
	sfx    unsafe.Pointer
}

// get reads slot i, racing put by design: readers validate it afterwards.
//
//go:norace
func (s *slots) get(i int) skey {
	return skey{s.w0[i], s.w1[i], s.n[i], s.suffixAt(i)}
}

// put writes k into slot i, giving the node its suffix block if k is the
// first long key it holds. Caller holds the node's lock, or the node is
// not yet reachable.
func (s *slots) put(i int, k skey) {
	s.w0[i], s.w1[i], s.n[i] = k.w0, k.w1, k.n
	b := s.block()
	if b == nil {
		if k.sfx == nil {
			return
		}
		b = new(suffixes)
		atomic.StorePointer(&s.sfx, unsafe.Pointer(b))
	}
	atomic.StorePointer(&b[i], k.sfx)
}

// drop clears slot i's suffix pointer once the key has moved out of it, so
// a vacated slot holds no suffix alive.
func (s *slots) drop(i int) {
	if b := s.block(); b != nil {
		atomic.StorePointer(&b[i], nil)
	}
}

// makeKey encodes key in slot form, its suffix allocated alone.
func makeKey(key []byte) skey {
	k := skey{w0: word(key), n: uint8(len(key))}
	if len(key) > 8 {
		k.w1 = word(key[8:])
	}
	if len(key) > inlineBytes {
		k.sfx = newSuffix(key[inlineBytes:], nil)
	}
	return k
}

// KeyWords returns bytes 0–15 of key as a slot keeps them: two big-endian
// words, zero-padded. Keys order as their words do up to a tie on both,
// and the lengths settle a tie unless both keys go on past 16 bytes.
func KeyWords(key []byte) (w0, w1 uint64) {
	if len(key) > 8 {
		return word(key), word(key[8:])
	}
	return word(key), 0
}

// word loads up to eight bytes of b as a big-endian word, zero-padded.
func word(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b)
	}
	var w uint64
	for i, c := range b {
		w |= uint64(c) << (56 - 8*i)
	}
	return w
}

// newSuffix copies tail into an allocation of one length byte followed by
// the bytes, carved from *slab when it has room (a Build stretch's one
// allocation for all of them) and made alone otherwise.
func newSuffix(tail []byte, slab *[]byte) unsafe.Pointer {
	sz := 1 + len(tail)
	var b []byte
	if slab != nil && len(*slab) >= sz {
		b, *slab = (*slab)[:sz:sz], (*slab)[sz:]
	} else {
		b = make([]byte, sz)
	}
	b[0] = byte(len(tail))
	copy(b[1:], tail)
	return unsafe.Pointer(&b[0])
}

// suffix returns the bytes of the suffix at p, as many as its own length
// byte says.
func suffix(p unsafe.Pointer) []byte {
	if p == nil {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Add(p, 1)), *(*byte)(p))
}

// appendTo appends the key's bytes to dst: up to 16 as its length says,
// and past that as many as its suffix says.
func (k *skey) appendTo(dst []byte) []byte {
	var b [inlineBytes]byte
	binary.BigEndian.PutUint64(b[:8], k.w0)
	binary.BigEndian.PutUint64(b[8:], k.w1)
	if k.n <= inlineBytes {
		return append(dst, b[:k.n]...)
	}
	return append(append(dst, b[:]...), suffix(k.sfx)...)
}

// check reports a slot-form key that no makeKey could have produced.
func (k *skey) check() error {
	n := int(k.n)
	switch {
	case n == 0 || n > MaxKeyLen:
		return fmt.Errorf("key length %d", n)
	case n < 8 && k.w0<<(8*n) != 0, n <= 8 && k.w1 != 0, n > 8 && n < 16 && k.w1<<(8*(n-8)) != 0:
		return fmt.Errorf("%d-byte key with bytes beyond its length", n)
	case (n > inlineBytes) != (k.sfx != nil):
		return fmt.Errorf("%d-byte key with suffix %p", n, k.sfx)
	case n > inlineBytes && len(suffix(k.sfx)) != n-inlineBytes:
		return fmt.Errorf("%d-byte key with a %d-byte suffix", n, len(suffix(k.sfx)))
	}
	return nil
}

// probe is a key in the form comparisons take: its two words, its length
// and, past 16 bytes, the rest of it. A search builds one per operation.
type probe struct {
	w0, w1 uint64
	n      int
	tail   []byte
}

func probeOf(key []byte) probe {
	p := probe{w0: word(key), n: len(key)}
	if len(key) > 8 {
		p.w1 = word(key[8:])
	}
	if len(key) > inlineBytes {
		p.tail = key[inlineBytes:]
	}
	return p
}

func (k *skey) probe() probe {
	return probe{w0: k.w0, w1: k.w1, n: int(k.n), tail: suffix(k.sfx)}
}

// compare orders a and b as bytes.Compare orders their keys. Keys whose
// zero-padded 16 bytes tie differ only in what follows: when either ends
// within 16 bytes it is a prefix of the other, and the shorter sorts first;
// otherwise their tails decide.
func compare(a, b *probe) int {
	if a.w0 != b.w0 {
		return cmp.Compare(a.w0, b.w0)
	}
	if a.w1 != b.w1 {
		return cmp.Compare(a.w1, b.w1)
	}
	if a.n > inlineBytes && b.n > inlineBytes {
		return bytes.Compare(a.tail, b.tail)
	}
	return cmp.Compare(a.n, b.n)
}

// cmpAt is compare of slot i against p, reading no more of the slot than
// the comparison needs. Like get, it is a validated read.
//
//go:norace
func (s *slots) cmpAt(i int, p *probe) int {
	if w := s.w0[i]; w != p.w0 {
		return cmp.Compare(w, p.w0)
	}
	if w := s.w1[i]; w != p.w1 {
		return cmp.Compare(w, p.w1)
	}
	n := int(s.n[i])
	if n > inlineBytes && p.n > inlineBytes {
		return bytes.Compare(suffix(s.suffixAt(i)), p.tail)
	}
	return cmp.Compare(n, p.n)
}
