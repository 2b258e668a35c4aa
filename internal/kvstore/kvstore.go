// Package kvstore is the Key-Value baseline of §5.2: the concurrent B+-tree
// underneath Silo, exposed directly with single-key gets and puts and no
// transaction tracking at all. Reads use the record-level version-validation
// protocol (so single-key reads are atomic); writes lock the record for the
// duration of the data copy. Figure 4 compares MemSilo against this to show
// the cost of read/write-set maintenance.
//
// It is also every table of §5.4's Partitioned-Store (internal/partition),
// which calls it under its partition locks. Both baselines thus run on the
// same tree and records as MemSilo and differ from it only in concurrency
// control.
package kvstore

import (
	"silo/internal/btree"
	"silo/internal/record"
	"silo/internal/tid"
)

// Store is a non-transactional ordered key-value store.
type Store struct {
	tree *btree.Tree
}

// New returns an empty store.
func New() *Store {
	return &Store{tree: btree.New()}
}

// Get returns a copy of the value for key, or nil if missing.
func (s *Store) Get(key []byte) []byte {
	rec, _, _ := s.tree.Get(key)
	if rec == nil {
		return nil
	}
	val, w := rec.Read(nil)
	if w.Absent() {
		return nil
	}
	return val
}

// GetInto appends the value for key to buf, returning the extended buffer
// and whether the key was found (allocation-free fast path for benchmarks).
func (s *Store) GetInto(buf, key []byte) ([]byte, bool) {
	rec, _, _ := s.tree.Get(key)
	if rec == nil {
		return buf, false
	}
	val, w := rec.Read(buf)
	if w.Absent() {
		return buf, false
	}
	return val, true
}

// Put stores value under key, inserting or overwriting.
func (s *Store) Put(key, value []byte) {
	for {
		rec, _, _ := s.tree.Get(key)
		if rec == nil {
			nr := record.New(tid.Make(1, 1).WithLatest(true), value)
			if _, inserted, _ := s.tree.InsertIfAbsent(key, nr); inserted {
				return
			}
			continue // lost the race; write through the existing record
		}
		w := rec.Lock()
		if !rec.TryOverwriteLocked(value) {
			rec.SetDataLocked(value, nil)
		}
		rec.Unlock(tid.Word(uint64(w) + tid.SeqStep).WithLatest(true).WithAbsent(false))
		return
	}
}

// ReadModifyWrite atomically applies fn to the value of key (the
// single-record RMW the YCSB variant issues). It returns false if the key
// is missing.
func (s *Store) ReadModifyWrite(key []byte, fn func(val []byte)) bool {
	rec, _, _ := s.tree.Get(key)
	if rec == nil {
		return false
	}
	w := rec.Lock()
	if w.Absent() {
		rec.Unlock(w)
		return false
	}
	fn(rec.DataUnsafe()) // lock held: direct mutation is safe
	rec.Unlock(tid.Word(uint64(w) + tid.SeqStep).WithLatest(true).WithAbsent(false))
	return true
}

// Scan visits keys in [lo, hi) in order.
func (s *Store) Scan(lo, hi []byte, fn func(key, value []byte) bool) {
	var buf []byte
	s.tree.Scan(lo, hi, nil, func(key []byte, rec *record.Record) bool {
		val, w := rec.Read(buf)
		buf = val[:0]
		if w.Absent() {
			return true
		}
		return fn(key, val)
	})
}
