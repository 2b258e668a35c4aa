package btree

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPrefetchUnderSplits: Prefetch is a hint that must be safe on any
// keys at any moment. It runs over keys that are present, absent, past
// the tree's right edge, longer than 16 bytes, and invalid, while writers
// insert (splitting leaves and inner nodes, growing the root) and remove
// around them. It must never panic, must pass -race — it reads nodes only
// through the atomic and validated reads — and must leave the tree's
// invariants and contents as the writers left them.
func TestPrefetchUnderSplits(t *testing.T) {
	tr := New()
	present := make([][]byte, 0, 512)
	for i := 0; i < 512; i++ {
		k := []byte(fmt.Sprintf("k%06d", i*4))
		tr.InsertIfAbsent(k, mkrec(byte(i)))
		present = append(present, k)
	}
	probes := [][]byte{
		[]byte("k000000"),                        // the left edge
		[]byte("k000001"),                        // absent, between present keys
		[]byte("zzzzzzzz"),                       // past the right edge
		[]byte("k000100-and-a-long-tail"),        // past 16 bytes
		nil,                                      // invalid: empty
		[]byte(strings.Repeat("x", MaxKeyLen+1)), // invalid: too long
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; !stop.Load(); i++ {
				// Odd keys between the present ones, long and short; a
				// third of them go again.
				k := []byte(fmt.Sprintf("k%06d", rng.Intn(4096)*2+1))
				if i%4 == 0 {
					k = append(k, "-with-a-suffix-past-16"...)
				}
				if i%3 == 0 {
					tr.Remove(k)
				} else {
					tr.InsertIfAbsent(k, mkrec(byte(i)))
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	keys := make([][]byte, 0, 40)
	for iter := 0; iter < 3000; iter++ {
		keys = keys[:0]
		for len(keys) < 1+rng.Intn(40) {
			if rng.Intn(3) == 0 {
				keys = append(keys, probes[rng.Intn(len(probes))])
			} else {
				keys = append(keys, present[rng.Intn(len(present))])
			}
		}
		tr.Prefetch(keys)
	}
	stop.Store(true)
	wg.Wait()
	tr.Prefetch(probes)
	tr.Prefetch(nil)

	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, k := range present {
		if rec, _, _ := tr.Get(k); rec == nil || rec.DataUnsafe()[0] != byte(i) {
			t.Fatalf("key %s lost or changed after the prefetch passes", k)
		}
	}
}
