package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"silo/internal/record"
)

// buildRuns cuts items key(0) … key(n−1) into runs at random points, empty
// runs included, the way recovery hands Build one run per checkpoint part.
func buildRuns(rng *rand.Rand, n int) ([][]Item, []*record.Record) {
	recs := make([]*record.Record, n)
	items := make([]Item, n)
	for i := range items {
		recs[i] = mkrec(byte(i))
		items[i] = Item{Key: key(i), Rec: recs[i]}
	}
	var runs [][]Item
	for len(items) > 0 {
		k := min(len(items), rng.Intn(2*fanout*fanout))
		runs = append(runs, items[:k])
		items = items[k:]
	}
	return append(runs, nil), recs
}

// leavesOf walks the leaf chain from the leftmost leaf.
func leavesOf(tr *Tree) []*leaf {
	n := tr.loadRoot()
	for n.level > 0 {
		n = (*inner)(unsafe.Pointer(n)).child(0)
	}
	var out []*leaf
	for lf := (*leaf)(unsafe.Pointer(n)); lf != nil; lf = lf.nextLeaf() {
		out = append(out, lf)
	}
	return out
}

// TestBuild: a built tree holds its invariants and its exact shape — packed
// leaves (fill 1.0 when the key count is a multiple of the fanout), hints
// after the last key — and then answers and takes every operation as a tree
// built by inserts does.
func TestBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, n := range []int{1, fanout - 1, fanout, fanout + 1, fanout * (fanout + 1), fanout*(fanout+1) + 1, 100000} {
		workers := 1 + i%4 // 100 000 keys fill 3 stretches
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			tr := New()
			runs, recs := buildRuns(rng, n)
			tr.Build(workers, runs...)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			leaves, height := (n+fanout-1)/fanout, 1
			for m := leaves; m > 1; m = (m + fanout) / (fanout + 1) {
				height++
			}
			if sh := tr.Shape(); sh != (Shape{Keys: n, Leaves: leaves, Height: height}) {
				t.Fatalf("shape %+v, want %d keys in %d leaves, height %d", sh, n, leaves, height)
			}
			if n%fanout == 0 && tr.Shape().Fill() != 1 {
				t.Fatalf("fill %.3f, want 1", tr.Shape().Fill())
			}
			for _, lf := range leavesOf(tr) {
				if int(lf.hint) != int(lf.nkeys.Load()) {
					t.Fatalf("leaf hint %d, want its key count %d", lf.hint, lf.nkeys.Load())
				}
			}

			for i := 0; i < n; i++ {
				if rec, _, _ := tr.Get(key(i)); rec != recs[i] {
					t.Fatalf("Get(%q) = %p, want %p", key(i), rec, recs[i])
				}
			}
			var batch [][]byte
			for i := -1; i <= n; i++ {
				batch = append(batch, key(i), []byte(fmt.Sprintf("key%06d+", i)))
			}
			sort.Slice(batch, func(a, b int) bool { return bytes.Compare(batch[a], batch[b]) < 0 })
			tr.GetBatch(batch, func(i int, rec *record.Record, _ *Node, _ uint64) bool {
				if want, _, _ := tr.Get(batch[i]); rec != want {
					t.Fatalf("GetBatch(%q) = %p, Get %p", batch[i], rec, want)
				}
				return true
			})
			next := 0
			tr.Scan([]byte{0}, nil, nil, func(k []byte, rec *record.Record) bool {
				if !bytes.Equal(k, key(next)) || rec != recs[next] {
					t.Fatalf("scan position %d: %q", next, k)
				}
				next++
				return true
			})
			if next != n {
				t.Fatalf("scan saw %d keys, want %d", next, n)
			}

			// Writes: a key between every pair, then every third built key
			// and every other new key removed.
			for i := 0; i < n; i++ {
				if _, inserted, _ := tr.InsertIfAbsent([]byte(fmt.Sprintf("key%06d+", i)), mkrec(0)); !inserted {
					t.Fatalf("insert after key %d refused", i)
				}
			}
			for i := 0; i < n; i++ {
				if i%3 == 0 {
					if ok, _ := tr.RemoveIf(key(i), func(r *record.Record) bool { return r == recs[i] }); !ok {
						t.Fatalf("RemoveIf(%q) refused", key(i))
					}
				}
				if i%2 == 0 {
					tr.Remove([]byte(fmt.Sprintf("key%06d+", i)))
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			want := 2*n - (n+2)/3 - (n+1)/2
			if tr.Len() != want {
				t.Fatalf("%d keys after the writes, want %d", tr.Len(), want)
			}
		})
	}
}

// TestBuildAppendKeepsFill: ascending runs written after a Build — past the
// last key, and inside the key space at the end of each of 20 built runs —
// go on packing, because every built leaf's hint stands after its last key.
func TestBuildAppendKeepsFill(t *testing.T) {
	k := func(r, i int) []byte { return binary.BigEndian.AppendUint32([]byte{byte(r)}, uint32(i)) }
	for _, runs := range []int{1, 20} {
		tr := New()
		var items []Item
		for r := 0; r < runs; r++ {
			for i := 0; i < 20000/runs; i++ {
				items = append(items, Item{Key: k(r, i), Rec: mkrec(1)})
			}
		}
		tr.Build(1, items)
		rng := rand.New(rand.NewSource(2))
		next := make([]int, runs)
		for i := range next {
			next[i] = 20000 / runs
		}
		for step := 0; step < 40000; step++ {
			r := rng.Intn(runs)
			tr.InsertIfAbsent(k(r, next[r]), mkrec(1))
			next[r]++
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		sh := tr.Shape()
		t.Logf("%d runs: %+v, fill %.3f", runs, sh, sh.Fill())
		if sh.Fill() < 0.9 {
			t.Errorf("%d runs appended after Build: fill %.3f, want at least 0.9", runs, sh.Fill())
		}
	}
}

func TestBuildPanics(t *testing.T) {
	for name, build := range map[string]func(){
		"non-empty tree": func() {
			tr := New()
			tr.InsertIfAbsent(key(1), mkrec(1))
			tr.Build(1, []Item{{Key: key(2), Rec: mkrec(2)}})
		},
		"emptied tree that split": func() {
			tr := New()
			for i := 0; i <= fanout; i++ {
				tr.InsertIfAbsent(key(i), mkrec(1))
			}
			for i := 0; i <= fanout; i++ {
				tr.Remove(key(i))
			}
			tr.Build(1, []Item{{Key: key(2), Rec: mkrec(2)}})
		},
		"descending in a run": func() {
			New().Build(1, []Item{{Key: key(2), Rec: mkrec(2)}, {Key: key(1), Rec: mkrec(1)}})
		},
		"duplicate across runs": func() {
			New().Build(1, []Item{{Key: key(1), Rec: mkrec(1)}}, nil, []Item{{Key: key(1), Rec: mkrec(1)}})
		},
		"descending across stretches": func() {
			items := stretchedItems(4)
			b := stretchStarts(len(items), 4)[2]
			items[b-1], items[b] = items[b], items[b-1]
			New().Build(4, items)
		},
		"key too long in a stretch": func() {
			items := stretchedItems(4)
			items[len(items)-1].Key = bytes.Repeat([]byte{0xff}, MaxKeyLen+1)
			New().Build(4, items)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Build did not panic", name)
				}
			}()
			build()
		}()
	}
}

// stretchedItems is enough ascending items, of 1 to MaxKeyLen bytes, for
// Build to fill stretches of leaves on that many goroutines.
func stretchedItems(stretches int) []Item {
	items := make([]Item, stretches*buildStretch*fanout)
	for i := range items {
		k := binary.BigEndian.AppendUint32(nil, uint32(i))
		items[i] = Item{Key: append(k, bytes.Repeat([]byte{'k'}, i%(MaxKeyLen-3))...), Rec: mkrec(byte(i))}
	}
	return items
}

// stretchStarts is the first item of each stretch Build cuts n items into
// on that many goroutines.
func stretchStarts(n, stretches int) []int {
	leaves := (n + fanout - 1) / fanout
	var at []int
	for s := 0; s < stretches; s++ {
		at = append(at, s*leaves/stretches*fanout)
	}
	return at
}

// TestBuildStretches: a tree built on several goroutines, with keys long
// enough to need suffixes and runs cut across the stretches' bounds, is the
// tree one goroutine builds, key for key and record for record.
func TestBuildStretches(t *testing.T) {
	items := stretchedItems(3)
	rng := rand.New(rand.NewSource(4))
	var runs [][]Item
	for rest := items; len(rest) > 0; {
		k := min(len(rest), rng.Intn(len(items)/5))
		runs, rest = append(runs, rest[:k]), rest[k:]
	}
	serial := New()
	serial.Build(1, items)
	for _, workers := range []int{2, 3, 8} {
		tr := New()
		tr.Build(workers, runs...)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if tr.Shape() != serial.Shape() {
			t.Fatalf("workers=%d: shape %+v, one goroutine builds %+v", workers, tr.Shape(), serial.Shape())
		}
		next := 0
		tr.Scan([]byte{0}, nil, nil, func(k []byte, rec *record.Record) bool {
			if !bytes.Equal(k, items[next].Key) || rec != items[next].Rec {
				t.Fatalf("workers=%d: scan position %d holds %q", workers, next, k)
			}
			next++
			return true
		})
		if next != len(items) {
			t.Fatalf("workers=%d: scan saw %d keys, want %d", workers, next, len(items))
		}
	}
}

// TestBuildConcurrentReaders: readers running while the tree is built see it
// empty or whole, never in part; once it is published they go on seeing
// exactly the built keys while writers split and empty leaves beside them.
func TestBuildConcurrentReaders(t *testing.T) {
	const n = 5000
	tr := New()
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: []byte(fmt.Sprintf("a%06d", i)), Rec: mkrec(byte(i))}
	}
	var built, stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; !stop.Load(); round++ {
				after := built.Load()
				seen := 0
				var last []byte
				tr.Scan([]byte("a"), []byte("b"), nil, func(k []byte, _ *record.Record) bool {
					if last != nil && bytes.Compare(last, k) >= 0 {
						fail(fmt.Errorf("scan out of order at %q", k))
					}
					last = append(last[:0], k...)
					if len(k) == len(items[0].Key) { // a built key, not a writer's
						seen++
					}
					return true
				})
				if seen != n && (after || seen != 0) {
					fail(fmt.Errorf("scan saw %d built keys (built before it: %v), want %d", seen, after, n))
					return
				}
				it := items[round%n]
				if rec, _, _ := tr.Get(it.Key); after && rec != it.Rec {
					fail(fmt.Errorf("Get(%q) after the build = %p, want %p", it.Key, rec, it.Rec))
					return
				}
			}
		}()
	}
	tr.Build(1, items[:n/3], items[n/3:])
	built.Store(true)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; !stop.Load(); i++ {
				k := []byte(fmt.Sprintf("a%06d+%d", rng.Intn(n), g))
				if i%3 == 2 {
					tr.Remove(k)
				} else {
					tr.InsertIfAbsent(k, mkrec(0))
				}
				if i%500 == 0 {
					keys := tr.SplitKeys(4)
					for j := 1; j < len(keys); j++ {
						if bytes.Compare(keys[j-1], keys[j]) >= 0 {
							fail(fmt.Errorf("split keys out of order: %q", keys))
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 300 && len(errs) == 0; i++ {
		tr.Scan([]byte("a"), nil, nil, func([]byte, *record.Record) bool { return true })
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// splitShares counts the keys in each range the split keys cut.
func splitShares(tr *Tree, keys [][]byte) []int {
	shares := make([]int, len(keys)+1)
	p := 0
	tr.Scan([]byte{0}, nil, nil, func(k []byte, _ *record.Record) bool {
		for p < len(keys) && bytes.Compare(k, keys[p]) >= 0 {
			p++
		}
		shares[p]++
		return true
	})
	return shares
}

// TestSplitKeys: the keys ascend, number n−1 when the tree has the leaves
// for it, and cut packed leaves to within one leaf of an even split — and a
// tree grown by random inserts, whose leaves hold 8 to 16 keys, to within
// 15–35 % in four.
func TestSplitKeys(t *testing.T) {
	if New().SplitKeys(4) != nil {
		t.Fatal("a one-leaf tree has split keys")
	}
	const total = 100000
	built := New()
	runs, _ := buildRuns(rand.New(rand.NewSource(3)), total)
	built.Build(1, runs...)
	for _, n := range []int{0, 1, 2, 3, 4, 7, 16, 64} {
		keys := built.SplitKeys(n)
		if want := max(n-1, 0); len(keys) != want {
			t.Fatalf("n=%d: %d keys, want %d", n, len(keys), want)
		}
		for i, s := range splitShares(built, keys) {
			if d := s - total/max(n, 1); d < -fanout || d > fanout {
				t.Fatalf("n=%d: range %d holds %d keys, want %d ± %d", n, i, s, total/max(n, 1), fanout)
			}
		}
	}

	small := New()
	for i := 0; i < 3*fanout; i++ {
		small.InsertIfAbsent(key(i), mkrec(1))
	}
	if got, leaves := len(small.SplitKeys(64)), small.Shape().Leaves; got != leaves-1 {
		t.Fatalf("%d leaves cut by %d keys, want %d", leaves, got, leaves-1)
	}

	random := New()
	fillRandom(random, total)
	keys := random.SplitKeys(4)
	for i, s := range splitShares(random, keys) {
		if f := float64(s) / total; f < 0.15 || f > 0.35 {
			t.Errorf("random tree: range %d holds %.3f of the keys", i, f)
		}
	}
}
