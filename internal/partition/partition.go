// Package partition implements the Partitioned-Store baseline of §5.4,
// motivated by H-Store/VoltDB: the database is physically partitioned (by
// warehouse, in TPC-C) into separate sets of B+-trees, each partition
// guarded by one whole-partition spinlock allocated on its own cache line.
// A transaction declares the partitions it touches up front (the paper
// assumes perfect knowledge of partition locks), acquires them in sorted
// order, runs without any further concurrency control, and releases them.
// Single-partition transactions are therefore extremely fast;
// multi-partition transactions serialize on the coarse locks.
//
// Each table of each partition is a kvstore.Store, the Key-Value baseline's
// non-transactional path over Silo's own B+-tree (internal/btree) and
// records: §5.4 builds Partitioned-Store from Silo's tree, "remov[ing] the
// concurrency control mechanisms in place in the B+-tree" and the
// record-level concurrency control. What §5.4 removes is absent here: there
// are no read-, write- or node-sets, no validation and no TIDs. What is
// left of the tree's own concurrency control is an uncontended node-version
// load per node visited, under the partition lock, and a record lock on an
// overwrite. Those costs count against Partitioned-Store, so its lead over
// MemSilo at 0% cross-partition transactions is a lower bound.
//
// Partitioned-Store supports neither snapshot transactions nor durability,
// matching the paper's configuration.
package partition

import (
	"runtime"
	"sync/atomic"

	"silo/internal/kvstore"
)

// spinlock is a cache-line-padded test-and-set lock. The paper implements
// partition locks as spinlocks and pads them to prevent false sharing.
type spinlock struct {
	v atomic.Uint32
	_ [60]byte
}

func (l *spinlock) lock() {
	for spins := 0; ; spins++ {
		if l.v.Load() == 0 && l.v.CompareAndSwap(0, 1) {
			return
		}
		if spins > 16 {
			runtime.Gosched()
		}
	}
}

func (l *spinlock) unlock() { l.v.Store(0) }

// Store is a statically partitioned collection of tables.
type Store struct {
	locks []spinlock
	// tables[p][t] is table t of partition p.
	tables [][]*kvstore.Store
}

// New creates a store with nparts partitions, each holding ntables tables.
func New(nparts, ntables int) *Store {
	s := &Store{}
	s.locks = make([]spinlock, nparts)
	s.tables = make([][]*kvstore.Store, nparts)
	for p := range s.tables {
		s.tables[p] = make([]*kvstore.Store, ntables)
		for t := range s.tables[p] {
			s.tables[p][t] = kvstore.New()
		}
	}
	return s
}

// Partitions returns the partition count.
func (s *Store) Partitions() int { return len(s.tables) }

// Tx is the store as a running partitioned transaction sees it. It is
// valid only inside Run.
type Tx Store

// Run executes fn holding the locks of all partitions in parts (sorted
// order, duplicates ignored). Once the locks are held the transaction is
// guaranteed to commit: there is no validation and no abort path, exactly
// as in the paper's design.
func (s *Store) Run(parts []int, fn func(tx *Tx)) {
	// Insertion-sort the (tiny) partition set, dropping duplicates.
	var held [16]int
	n := 0
	for _, p := range parts {
		i := n
		dup := false
		for i > 0 && held[i-1] >= p {
			if held[i-1] == p {
				dup = true
				break
			}
			i--
		}
		if dup {
			continue
		}
		copy(held[i+1:n+1], held[i:n])
		held[i] = p
		n++
	}
	for i := 0; i < n; i++ {
		s.locks[held[i]].lock()
	}
	fn((*Tx)(s))
	for i := n - 1; i >= 0; i-- {
		s.locks[held[i]].unlock()
	}
}

// Get appends the value for key in (partition, table) to buf, returning
// the extended buffer and whether the key was found. A buf with room for
// the value makes the read allocation-free.
func (tx *Tx) Get(part, table int, key, buf []byte) ([]byte, bool) {
	return tx.tables[part][table].GetInto(buf, key)
}

// Put stores a copy of value under key in (partition, table).
func (tx *Tx) Put(part, table int, key, value []byte) {
	tx.tables[part][table].Put(key, value)
}

// Scan visits [lo, hi) in key order within one partition's table; lo must
// not be empty. The value passed to fn is valid only during the callback.
func (tx *Tx) Scan(part, table int, lo, hi []byte, fn func(key, value []byte) bool) {
	tx.tables[part][table].Scan(lo, hi, fn)
}

// Load bulk-inserts during single-threaded setup, bypassing locks.
func (s *Store) Load(part, table int, key, value []byte) {
	s.tables[part][table].Put(key, value)
}
