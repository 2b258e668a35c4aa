//go:build !race

// Package race is the engine's one build-tagged pair for the Go race
// detector. Race builds run the protocol normal builds ship. Silo's reads
// are correct by validation, not by happens-before: a reader copies record
// data or tree slots, then re-checks the TID word (§4.5) or node version
// (§4.6), which the detector cannot see. Those copies alone are marked:
// btree's slots.get and slots.cmpAt and trace's Ring.snapshot are
// //go:norace (a no-op in normal builds, inlining included), and
// Record.Read copies through AppendValidated — a loop under -race, since
// append and copy call the runtime's instrumented slicecopy even from a
// //go:norace function. runtime.RaceDisable would not do: it hides
// synchronisation events, not memory accesses. Atomic slot loads would
// not either: they add happens-before edges that hide real races.
package race

// Enabled is true when the build has the race detector compiled in.
const Enabled = false

// AppendValidated appends src, which a writer may be changing, to dst;
// the caller validates the copy afterwards.
func AppendValidated(dst, src []byte) []byte { return append(dst, src...) }
