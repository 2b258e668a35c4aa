package partition

import (
	"encoding/binary"
	"sync"
	"testing"
)

func TestSinglePartitionOps(t *testing.T) {
	s := New(1, 2)
	s.Run([]int{0}, func(tx *Tx) {
		tx.Put(0, 0, []byte("k"), []byte("v"))
		if v, _ := tx.Get(0, 0, []byte("k"), nil); string(v) != "v" {
			t.Error("get after put")
		}
		if _, ok := tx.Get(0, 1, []byte("k"), nil); ok {
			t.Error("table isolation broken")
		}
	})
}

func TestLockOrderingNoDeadlock(t *testing.T) {
	// Workers locking overlapping partition sets in every order must not
	// deadlock (Run sorts them internally).
	s := New(4, 1)
	key := []byte("n")
	for p := 0; p < 4; p++ {
		s.Load(p, 0, key, make([]byte, 8))
	}
	var wg sync.WaitGroup
	sets := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0}, {1, 3}, {0, 3, 1}, {2, 2, 2}}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Run(sets[g], func(tx *Tx) {
					for _, p := range sets[g] {
						v, _ := tx.Get(p, 0, key, nil)
						binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+1)
						tx.Put(p, 0, key, v)
					}
				})
			}
		}(g)
	}
	wg.Wait()
}

func TestMutualExclusionCounts(t *testing.T) {
	// Increments under the partition lock must never be lost.
	s := New(2, 1)
	key := []byte("n")
	s.Load(0, 0, key, make([]byte, 8))
	s.Load(1, 0, key, make([]byte, 8))
	const (
		goroutines = 8
		per        = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := g % 2
			for i := 0; i < per; i++ {
				s.Run([]int{p}, func(tx *Tx) {
					v, _ := tx.Get(p, 0, key, nil)
					binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(v)+1)
					tx.Put(p, 0, key, v)
				})
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for p := 0; p < 2; p++ {
		s.Run([]int{p}, func(tx *Tx) {
			v, _ := tx.Get(p, 0, key, nil)
			total += binary.LittleEndian.Uint64(v)
		})
	}
	if total != goroutines*per {
		t.Fatalf("total=%d want %d (lost updates ⇒ partition lock broken)", total, goroutines*per)
	}
}

func TestMultiPartitionAtomicity(t *testing.T) {
	// A cross-partition transfer holds both locks: concurrent observers
	// locking both partitions must always see a conserved sum.
	s := New(2, 1)
	key := []byte("bal")
	init := make([]byte, 8)
	binary.LittleEndian.PutUint64(init, 1000)
	s.Load(0, 0, key, init)
	s.Load(1, 0, key, init)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Run([]int{0, 1}, func(tx *Tx) {
				a, _ := tx.Get(0, 0, key, nil)
				b, _ := tx.Get(1, 0, key, nil)
				av := binary.LittleEndian.Uint64(a)
				bv := binary.LittleEndian.Uint64(b)
				if av > 0 {
					binary.LittleEndian.PutUint64(a, av-1)
					binary.LittleEndian.PutUint64(b, bv+1)
					tx.Put(0, 0, key, a)
					tx.Put(1, 0, key, b)
				}
			})
		}
	}()
	for i := 0; i < 2000; i++ {
		s.Run([]int{0, 1}, func(tx *Tx) {
			av, _ := tx.Get(0, 0, key, nil)
			bv, _ := tx.Get(1, 0, key, nil)
			a := binary.LittleEndian.Uint64(av)
			b := binary.LittleEndian.Uint64(bv)
			if a+b != 2000 {
				t.Errorf("sum=%d", a+b)
			}
		})
	}
	close(stop)
	wg.Wait()
}

func TestDuplicatePartitionIDs(t *testing.T) {
	s := New(3, 1)
	ran := false
	s.Run([]int{2, 2, 0, 0, 1}, func(tx *Tx) { ran = true })
	if !ran {
		t.Fatal("transaction did not run")
	}
	// Locks must have been released: a second run must not block.
	s.Run([]int{0, 1, 2}, func(tx *Tx) {})
}
