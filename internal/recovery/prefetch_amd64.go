package recovery

// prefetch asks the CPU to bring the cache line at addr close, without
// waiting for it: replay's absorb and merge name the winner, and the value,
// they will reach a few entries on, whose lines are at random places in a
// table or a log far larger than the cache. A prefetch never faults.
//
//go:noescape
func prefetch(addr uintptr)
