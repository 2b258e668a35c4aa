// Package prefetch asks the CPU to bring a cache line close without
// waiting for it: a lookup or a merge that knows which lines it will reach
// a few steps on names them now, so their misses overlap with the work in
// between instead of stalling it one at a time. A prefetch never faults,
// so any address will do, and it is never a memory access the race
// detector or the garbage collector sees.
package prefetch

// Line prefetches the cache line holding addr into every cache level.
//
//go:noescape
func Line(addr uintptr)
