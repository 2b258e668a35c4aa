package core

import "silo/internal/record"

// arena is the per-worker allocator standing in for the paper's NUMA-aware
// allocator (§5.1): record data buffers are carved from worker-local slabs
// and recycled through per-class free lists, so steady-state writes
// allocate nothing from the shared heap. The Figure 11 "+Allocator" factor
// toggles it.
//
// The classes are record's (8-byte steps up to 256 bytes, then eight per
// doubling up to 32 KiB); values beyond the top class get their own heap
// buffer.
// A replaced buffer goes back on the list of the class its header names and
// on no other, so a racy reader of a recycled buffer still reads inside it
// (see package record).
type arena struct {
	classes [record.NumClasses][][]byte
	slab    []byte
}

const slabSize = 1 << 20

// alloc returns a buffer for an n-byte value, of exactly its class's size,
// or nil when the value takes none from the arena (empty, or beyond the top
// class).
func (a *arena) alloc(n int) []byte {
	c := record.BufClass(n)
	if n == 0 || c >= record.NumClasses {
		return nil
	}
	if l := a.classes[c]; len(l) > 0 {
		buf := l[len(l)-1]
		a.classes[c] = l[:len(l)-1]
		return buf
	}
	return record.Carve(&a.slab, c, slabSize)
}

// free returns a buffer a record handed back to its class's list.
func (a *arena) free(buf []byte) {
	c := record.ClassOf(buf)
	if len(a.classes[c]) >= 4096 {
		return // cap the free list; beyond this the runtime reclaims
	}
	a.classes[c] = append(a.classes[c], buf)
}
