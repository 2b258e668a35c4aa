// Package tid implements Silo's 64-bit transaction-ID words (§4.2 of the
// paper).
//
// A TID word packs three fields:
//
//	[ epoch : 40 bits ][ sequence : 21 bits ][ status : 3 bits ]
//
// The high bits hold the epoch of the owning transaction's commit, the middle
// bits distinguish transactions within an epoch, and the low three bits are
// status bits that are logically separate from the TID itself: a lock bit, a
// latest-version bit, and an absent bit. Packing the status bits into the TID
// word lets a worker update a record's version and release its lock in a
// single atomic store.
//
// A "pure" TID is the word with the status bits masked off. Pure TIDs compare
// as plain integers: a TID from a later epoch always compares greater than
// one from an earlier epoch, and within an epoch larger sequence numbers
// compare greater.
//
// TIDs are assigned in a decentralized fashion: each worker owns a Generator
// that produces the smallest TID that is (a) larger than the TID of any
// record read or written by the transaction, (b) larger than the worker's
// most recently chosen TID, and (c) in the current global epoch. The
// GlobalGenerator implements the centralized alternative used by the
// MemSilo+GlobalTID baseline in Figure 4.
//
// The split is a budget on both fields, sized for epochs that close on
// demand (one fsync pass, ~1 ms) rather than only on the 40 ms tick:
//
//   - epochs: 2^40 of them last about 32 years at a sustained 1 100 epochs
//     per second (29 bits would last 5.6 days);
//   - sequence numbers: 2^21 − 1 ≈ 2.1 M per epoch, which is 52 M commits
//     per second even at 40 ms epochs. Sequence numbers follow the largest
//     TID a transaction observed, so the budget is per epoch across the
//     workers that share records, not per worker.
//
// A commit that cannot get a TID in its epoch — the sequence field is full —
// is refused by Generate rather than carried into the epoch field (which
// would hand out a TID from a future epoch); the caller aborts it, gets the
// epoch closed early, and retries in the next one.
//
// The layout is part of the log and checkpoint formats: a directory written
// under another split is not recoverable.
package tid

import (
	"fmt"
	"sync/atomic"
)

// Status bits (the low three bits of a TID word).
const (
	// LockBit protects record memory from concurrent updates; in database
	// terms it is a latch.
	LockBit uint64 = 1 << 0
	// LatestBit is set while a record holds the latest data for its key.
	LatestBit uint64 = 1 << 1
	// AbsentBit marks a record as logically equivalent to a nonexistent key.
	AbsentBit uint64 = 1 << 2

	// StatusMask selects the three status bits.
	StatusMask uint64 = LockBit | LatestBit | AbsentBit

	statusBits = 3
	seqBits    = 21
	epochBits  = 40

	seqShift   = statusBits
	epochShift = statusBits + seqBits

	// SeqStep is the distance between two consecutive pure TIDs within an
	// epoch: one unit of the sequence field.
	SeqStep uint64 = 1 << seqShift

	// MaxSeq is the largest sequence number representable in a TID word.
	MaxSeq uint64 = 1<<seqBits - 1
	// MaxEpoch is the largest epoch number representable in a TID word.
	MaxEpoch uint64 = 1<<epochBits - 1
)

// Word is a full TID word: pure TID plus status bits.
type Word uint64

// Make builds an unlocked TID word from an epoch and a sequence number with
// no status bits set. Epoch and sequence values are masked to their field
// widths (the paper ignores wraparound, which is rare; so do we).
func Make(epoch, seq uint64) Word {
	return Word((epoch&MaxEpoch)<<epochShift | (seq&MaxSeq)<<seqShift)
}

// Epoch extracts the epoch field.
func (w Word) Epoch() uint64 { return uint64(w) >> epochShift }

// Seq extracts the sequence field.
func (w Word) Seq() uint64 { return uint64(w) >> seqShift & MaxSeq }

// TID returns the pure transaction ID: the word with status bits cleared.
func (w Word) TID() uint64 { return uint64(w) &^ StatusMask }

// Locked reports whether the lock bit is set.
func (w Word) Locked() bool { return uint64(w)&LockBit != 0 }

// Latest reports whether the latest-version bit is set.
func (w Word) Latest() bool { return uint64(w)&LatestBit != 0 }

// Absent reports whether the absent bit is set.
func (w Word) Absent() bool { return uint64(w)&AbsentBit != 0 }

// WithLock returns the word with the lock bit set.
func (w Word) WithLock() Word { return w | Word(LockBit) }

// WithoutLock returns the word with the lock bit cleared.
func (w Word) WithoutLock() Word { return w &^ Word(LockBit) }

// WithLatest returns the word with the latest-version bit set to v.
func (w Word) WithLatest(v bool) Word {
	if v {
		return w | Word(LatestBit)
	}
	return w &^ Word(LatestBit)
}

// WithAbsent returns the word with the absent bit set to v.
func (w Word) WithAbsent(v bool) Word {
	if v {
		return w | Word(AbsentBit)
	}
	return w &^ Word(AbsentBit)
}

// String formats the word for debugging.
func (w Word) String() string {
	s := ""
	if w.Locked() {
		s += "L"
	}
	if w.Latest() {
		s += "V"
	}
	if w.Absent() {
		s += "A"
	}
	return fmt.Sprintf("tid{e=%d seq=%d %s}", w.Epoch(), w.Seq(), s)
}

// Generator produces commit TIDs for a single worker. It is not safe for
// concurrent use; each worker owns exactly one (§4.2: TID assignment is
// decentralized).
type Generator struct {
	last uint64 // pure TID of the most recently generated commit TID
}

// Last returns the pure TID most recently generated, or zero.
func (g *Generator) Last() uint64 { return g.last }

// Generate returns the commit TID for a transaction that observed maxObserved
// as the largest pure TID among the records it read or wrote, committing in
// the given epoch. The result is strictly greater than both maxObserved and
// the generator's previous output, and carries the given epoch (clamping the
// sequence number into the epoch if required: a TID can never belong to an
// epoch earlier than its commit epoch).
//
// ok is false when no such TID exists in the epoch: the smallest candidate
// would carry into the next epoch's field, because the sequence numbers of
// this epoch are used up (or an observed TID carries a later epoch, which
// the protocol's fences rule out). The generator is then left unchanged; the
// transaction must not commit in this epoch.
func (g *Generator) Generate(epoch uint64, maxObserved uint64) (w Word, ok bool) {
	cand, ok := next(g.last, epoch, maxObserved)
	if ok {
		g.last = cand
	}
	return Word(cand), ok
}

// next is the TID rule shared by both generators: the smallest pure TID
// above last and maxObserved with the given epoch, or ok=false if the
// epoch has none left.
func next(last, epoch, maxObserved uint64) (uint64, bool) {
	cand := max(last, maxObserved) + SeqStep
	if floor := uint64(Make(epoch, 0)); cand < floor {
		cand = floor
	}
	cand &^= StatusMask
	return cand, Word(cand).Epoch() == epoch
}

// GlobalGenerator hands out TIDs from one shared atomic counter. It exists
// only to reproduce the MemSilo+GlobalTID scalability collapse of Figure 4;
// Silo proper never uses it.
type GlobalGenerator struct {
	last atomic.Uint64
}

// Generate returns a fresh TID in the given epoch, strictly greater than
// every TID previously returned by this generator and than maxObserved; ok
// is false, as for Generator.Generate, when the epoch has none left.
func (g *GlobalGenerator) Generate(epoch uint64, maxObserved uint64) (w Word, ok bool) {
	for {
		cur := g.last.Load()
		cand, ok := next(cur, epoch, maxObserved)
		if !ok {
			return Word(cand), false
		}
		if g.last.CompareAndSwap(cur, cand) {
			return Word(cand), true
		}
	}
}
