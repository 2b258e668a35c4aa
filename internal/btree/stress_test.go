package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"silo/internal/record"
	"silo/internal/tid"
)

// TestScanDuringSplits: concurrent scans over a prefix that is never
// modified must always see exactly that prefix, in order, while writers
// split leaves by inserting into a disjoint suffix. This pins down the
// scan/split interaction: optimistic leaf reads plus the leaf chain must
// neither skip nor duplicate stable keys.
func TestScanDuringSplits(t *testing.T) {
	tr := New()
	const stable = 200
	for i := 0; i < stable; i++ {
		tr.InsertIfAbsent([]byte(fmt.Sprintf("a%06d", i)), mkrec(byte(i)))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Writers insert into the "b" suffix, splitting leaves constantly; some
	// of those splits touch leaves shared with the tail of the "a" prefix.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; !stop.Load(); i++ {
				k := []byte(fmt.Sprintf("b%06d-%d", rng.Intn(100000), g))
				tr.InsertIfAbsent(k, mkrec(byte(i)))
			}
		}(g)
	}

	// An ascending run between the two: "b!" sorts after every stable key
	// and before every random one, so its splits — at the insertion point
	// first, then with nothing moved — start in the leaf that holds the
	// tail of the "a" prefix.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			tr.InsertIfAbsent([]byte(fmt.Sprintf("b!%08d", i)), mkrec(byte(i)))
		}
	}()

	lo, hi := []byte("a"), []byte("b")
	for iter := 0; iter < 300; iter++ {
		var keys []string
		tr.Scan(lo, hi, nil, func(k []byte, rec *record.Record) bool {
			keys = append(keys, string(k))
			return true
		})
		if len(keys) != stable {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("iter %d: scan saw %d stable keys, want %d", iter, len(keys), stable)
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("iter %d: scan out of order at %d: %q ≥ %q", iter, i, keys[i-1], keys[i])
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGetDuringRemovals: lookups of permanently present keys must always
// succeed while other keys in the same leaves churn.
func TestGetDuringRemovals(t *testing.T) {
	tr := New()
	const n = 512
	for i := 0; i < n; i++ {
		tr.InsertIfAbsent(key(i), mkrec(byte(i)))
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	// Churn odd keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		for !stop.Load() {
			i := rng.Intn(n/2)*2 + 1
			if rng.Intn(2) == 0 {
				tr.Remove(key(i))
			} else {
				tr.InsertIfAbsent(key(i), mkrec(byte(i)))
			}
		}
	}()
	// Even keys must always be visible.
	for iter := 0; iter < 20000; iter++ {
		i := (iter * 2) % n
		rec, _, _ := tr.Get(key(i))
		if rec == nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("stable key %d disappeared", i)
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeVersionChangesOnEveryMutation: any mutation of a leaf — insert,
// remove — must change the version a reader captured, otherwise node-set
// validation has a hole.
func TestNodeVersionChangesOnEveryMutation(t *testing.T) {
	tr := New()
	for i := 0; i < 8; i++ {
		tr.InsertIfAbsent(key(i), mkrec(byte(i)))
	}
	grab := func(k []byte) (*Node, uint64) {
		_, n, v := tr.Get(k)
		return n, v
	}

	n1, v1 := grab(key(3))
	tr.InsertIfAbsent(key(100), mkrec(1)) // same leaf (small tree)
	if n1.Version() == v1 {
		t.Fatal("insert left version unchanged")
	}
	n2, v2 := grab(key(3))
	tr.Remove(key(100))
	if n2.Version() == v2 {
		t.Fatal("remove left version unchanged")
	}
	// Unrelated-leaf mutations must NOT disturb versions once the tree is
	// big enough for separate leaves.
	big := New()
	for i := 0; i < 1000; i++ {
		big.InsertIfAbsent(key(i), mkrec(byte(i)))
	}
	nA, vA := func() (*Node, uint64) { _, n, v := big.Get(key(0)); return n, v }()
	big.InsertIfAbsent(key(5000), mkrec(1)) // far right leaf
	if nA.Version() != vA {
		t.Fatal("distant insert disturbed an unrelated leaf's version (false aborts)")
	}
}

// TestConcurrentDisjointWriters: writers on disjoint key ranges should all
// succeed and the final tree must contain exactly the union.
func TestConcurrentDisjointWriters(t *testing.T) {
	tr := New()
	const (
		goroutines = 6
		perG       = 3000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var kb bytes.Buffer
			for i := 0; i < perG; i++ {
				kb.Reset()
				fmt.Fprintf(&kb, "g%d-%06d", g, i)
				r := record.New(tid.Make(1, uint64(i+1)).WithLatest(true), []byte{byte(g)})
				if _, inserted, _ := tr.InsertIfAbsent(kb.Bytes(), r); !inserted {
					t.Errorf("duplicate on disjoint insert g%d i%d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != goroutines*perG {
		t.Fatalf("Len=%d want %d", tr.Len(), goroutines*perG)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i += 97 {
			k := []byte(fmt.Sprintf("g%d-%06d", g, i))
			rec, _, _ := tr.Get(k)
			if rec == nil || rec.DataUnsafe()[0] != byte(g) {
				t.Fatalf("lost key %s", k)
			}
		}
	}
}
