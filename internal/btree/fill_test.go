package btree

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// Leaf fill under the insert orders the split rule distinguishes. Each
// filler inserts n keys into a fresh tree, all mapped to one record; the
// tests hold the fill to a floor with CheckInvariants after every phase,
// BenchmarkTreeFill reports it, and the node bytes per key, as metrics for
// the bench-tree gate.

// fillRuns inserts keys shaped like TPC-C's order-line key (w, d, o, ol) as
// 20 interleaved ascending runs, one per (w, d): each step appends one
// order of 5–15 lines to a run picked at random, so every run but the last
// ends mid-tree, in a leaf it shares with the head of the next district.
func fillRuns(tr *Tree, n int) {
	rec := mkrec(1)
	rng := rand.New(rand.NewSource(1))
	var next [20]uint32
	for done := 0; done < n; {
		r := rng.Intn(len(next))
		next[r]++
		for ol, lines := 0, 5+rng.Intn(11); ol < lines; ol++ {
			k := binary.BigEndian.AppendUint16(nil, uint16(r/10))
			k = append(k, byte(r%10))
			k = binary.BigEndian.AppendUint32(k, next[r])
			tr.InsertIfAbsent(append(k, byte(ol)), rec)
			done++
		}
	}
}

func fillRandom(tr *Tree, n int) {
	rec := mkrec(1)
	rng := rand.New(rand.NewSource(1))
	var k [8]byte
	for tr.Len() < n {
		binary.BigEndian.PutUint64(k[:], rng.Uint64())
		tr.InsertIfAbsent(k[:], rec)
	}
}

func fillDescending(tr *Tree, n int) {
	rec := mkrec(1)
	for i := n; i > 0; i-- {
		tr.InsertIfAbsent(key(i), rec)
	}
}

// halvedRandomFill is what fillRandom(100000) reaches when every split
// halves (0.702–0.706 over five seeds on the commit before the run-aware
// split point). The run rule fires by chance on one random split in
// seventeen and may cost no more than 0.03 of this; it costs 0.01.
const halvedRandomFill = 0.70

func TestLeafFill(t *testing.T) {
	for _, c := range []struct {
		name  string
		fill  func(*Tree, int)
		floor float64
	}{
		{"interleaved ascending runs", fillRuns, 0.90},
		{"uniform random", fillRandom, halvedRandomFill - 0.03},
		{"descending", fillDescending, 0.50},
	} {
		var sh Shape
		for _, n := range []int{1000, 100000} {
			tr := New()
			c.fill(tr, n)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s, %d keys: %v", c.name, n, err)
			}
			sh = tr.Shape()
		}
		t.Logf("%s: %+v, fill %.3f", c.name, sh, sh.Fill())
		if sh.Fill() < c.floor {
			t.Errorf("%s: fill %.3f, want at least %.2f", c.name, sh.Fill(), c.floor)
		}
	}
}

// TestRunsKeepFillAcrossRemovals: a delivery-style reaper removing the
// oldest keys of each run between its inserts shifts slots under the
// per-leaf hint; the runs must go on packing, and the emptied leaves must
// be counted.
func TestRunsKeepFillAcrossRemovals(t *testing.T) {
	tr := New()
	var next, oldest [8]uint32
	rng := rand.New(rand.NewSource(2))
	k := func(r int, i uint32) []byte { return binary.BigEndian.AppendUint32([]byte{byte(r)}, i) }
	for step := 0; step < 40000; step++ {
		r := rng.Intn(len(next))
		tr.InsertIfAbsent(k(r, next[r]), mkrec(1))
		next[r]++
		if step%3 == 0 && oldest[r] < next[r] {
			tr.Remove(k(r, oldest[r]))
			oldest[r]++
		}
		if step%5000 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sh := tr.Shape()
	live := float64(sh.Keys) / float64((sh.Leaves-sh.EmptyLeaves)*fanout)
	t.Logf("%+v, fill of non-empty leaves %.3f", sh, live)
	if live < 0.85 || sh.EmptyLeaves == 0 {
		t.Errorf("fill of non-empty leaves %.3f (want ≥ 0.85) with %d empty leaves (want some)", live, sh.EmptyLeaves)
	}
}

// TestHintFollowsLastInsert pins what the hint means, in one leaf under
// random inserts and removes: every key before the hinted slot is ≤ the
// last key inserted and every key from it on is greater — whether or not
// that key is still there.
func TestHintFollowsLastInsert(t *testing.T) {
	tr := New()
	lf := (*leaf)(unsafe.Pointer(tr.loadRoot()))
	rng := rand.New(rand.NewSource(3))
	var last []byte
	for step := 0; step < 5000; step++ {
		k := key(rng.Intn(fanout - 2)) // never enough keys to split
		if rng.Intn(3) > 0 {
			if _, inserted, _ := tr.InsertIfAbsent(k, mkrec(1)); inserted {
				last = k
			}
		} else {
			tr.Remove(k)
		}
		if last == nil {
			continue
		}
		for i := 0; i < int(lf.nkeys.Load()); i++ {
			k := lf.get(i)
			if before := i < int(lf.hint); before != (string(k.appendTo(nil)) <= string(last)) {
				t.Fatalf("step %d: hint %d, last insert %q, slot %d holds %q", step, lf.hint, last, i, k.appendTo(nil))
			}
		}
	}
	if tr.loadRoot() != &lf.node {
		t.Fatal("the leaf split; the test meant to stay inside it")
	}
}

// BenchmarkTreeFill reports, beside the fill and the leaf count, B/key: the
// live heap a tree's nodes (and long keys' suffixes) hold per key, read as
// a MemStats difference across the fill, whose keys all map to one record.
func BenchmarkTreeFill(b *testing.B) {
	for _, c := range []struct {
		name string
		fill func(*Tree, int)
	}{{"runs", fillRuns}, {"random", fillRandom}} {
		b.Run(c.name, func(b *testing.B) {
			var sh Shape
			var held uint64
			for i := 0; i < b.N; i++ {
				before := liveHeap()
				tr := New()
				c.fill(tr, 100000)
				held = liveHeap() - before
				sh = tr.Shape()
				runtime.KeepAlive(tr)
			}
			b.ReportMetric(sh.Fill(), "fill")
			b.ReportMetric(float64(sh.Leaves), "leaves")
			b.ReportMetric(float64(held)/float64(sh.Keys), "B/key")
		})
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
