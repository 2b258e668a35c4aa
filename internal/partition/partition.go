// Package partition implements the Partitioned-Store baseline of §5.4,
// motivated by H-Store/VoltDB: the database is physically partitioned (by
// warehouse, in TPC-C) into separate sets of single-threaded B+-trees, each
// partition guarded by one whole-partition spinlock allocated on its own
// cache line. A transaction declares the partitions it touches up front
// (the paper assumes perfect knowledge of partition locks), acquires them
// in sorted order, runs without any further concurrency control, and
// releases them. Single-partition transactions are therefore extremely
// fast; multi-partition transactions serialize on the coarse locks.
//
// Partitioned-Store supports neither snapshot transactions nor durability,
// matching the paper's configuration.
package partition

import (
	"runtime"
	"sync/atomic"

	"silo/internal/partition/plainbtree"
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
	// trees[p][t] is table t's tree in partition p.
	trees [][]*plainbtree.Tree
}

// New creates a store with nparts partitions, each holding ntables tables.
func New(nparts, ntables int) *Store {
	s := &Store{}
	s.locks = make([]spinlock, nparts)
	s.trees = make([][]*plainbtree.Tree, nparts)
	for p := range s.trees {
		s.trees[p] = make([]*plainbtree.Tree, ntables)
		for t := range s.trees[p] {
			s.trees[p][t] = plainbtree.New()
		}
	}
	return s
}

// Partitions returns the partition count.
func (s *Store) Partitions() int { return len(s.trees) }

// Tx is a running partitioned transaction. It is valid only inside Run.
type Tx struct {
	s *Store
}

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
	tx := Tx{s: s}
	fn(&tx)
	for i := n - 1; i >= 0; i-- {
		s.locks[held[i]].unlock()
	}
}

// Get returns the value for key in (partition, table), or nil.
func (tx *Tx) Get(part, table int, key []byte) []byte {
	return tx.s.trees[part][table].Get(key)
}

// Put stores value under key in (partition, table).
func (tx *Tx) Put(part, table int, key, value []byte) {
	tx.s.trees[part][table].Put(key, value)
}

// Scan visits [lo, hi) in key order within one partition's table.
func (tx *Tx) Scan(part, table int, lo, hi []byte, fn func(key, value []byte) bool) {
	tx.s.trees[part][table].Scan(lo, hi, fn)
}

// Load bulk-inserts during single-threaded setup, bypassing locks.
func (s *Store) Load(part, table int, key, value []byte) {
	s.trees[part][table].Put(key, value)
}
