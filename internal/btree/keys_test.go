package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"silo/internal/record"
	"silo/internal/tid"
)

// TestNodeSize: sixteen keys in slot form, their records or children and
// one pointer to an out-of-line suffix block fit Go's 448-byte size class
// (a leaf is 440 bytes, an inner node 432), where sixteen inline suffix
// pointers took the 576-byte class and sixteen 64-byte inline key slots
// 1 280 bytes.
func TestNodeSize(t *testing.T) {
	if l, i := unsafe.Sizeof(leaf{}), unsafe.Sizeof(inner{}); l > 448 || i > 448 {
		t.Fatalf("leaf %d bytes, inner %d bytes; want both within 448", l, i)
	}
}

// TestSuffixBlockOnFirstLongKey: a node gets its suffix block with its first
// key of more than 16 bytes, and only then; a split that moves long keys
// into a fresh right sibling gives the sibling its own block, and one that
// moves only short keys gives it none.
func TestSuffixBlockOnFirstLongKey(t *testing.T) {
	lowKey := func(i int, long bool) []byte { // "a<i>", sorting below every high key
		if long {
			return []byte(fmt.Sprintf("a%d-and-a-long-suffix", i))
		}
		return []byte(fmt.Sprintf("a%d", i))
	}
	highKey := func(i int, long bool) []byte {
		if long {
			return []byte(fmt.Sprintf("b%02d-and-a-long-suffix", i))
		}
		return []byte(fmt.Sprintf("b%02d", i))
	}
	for _, c := range []struct {
		name      string
		highsLong bool // the split moves the high keys right
	}{{"long-keys-move", true}, {"short-keys-move", false}} {
		t.Run(c.name, func(t *testing.T) {
			tr := New()
			var order []Item // the low half descending, then the high half
			for i := fanout/2 - 1; i >= 0; i-- {
				order = append(order, Item{Key: lowKey(i, !c.highsLong), Rec: mkrec(byte(i))})
			}
			for i := fanout - 1; i >= fanout/2; i-- {
				order = append(order, Item{Key: highKey(i, c.highsLong), Rec: mkrec(byte(i))})
			}
			hasBlock := false
			for _, it := range order {
				tr.InsertIfAbsent(it.Key, it.Rec)
				hasBlock = hasBlock || len(it.Key) > inlineBytes
				if got := leavesOf(tr)[0].block() != nil; got != hasBlock {
					t.Fatalf("after inserting %q the leaf has a suffix block: %v, want %v", it.Key, got, hasBlock)
				}
			}
			// A seventeenth low key, after every low key and away from the
			// last insert: the full leaf halves, the high keys move right.
			mid := Item{Key: []byte(fmt.Sprintf("a%d~", fanout/2-1)), Rec: mkrec(fanout)}
			tr.InsertIfAbsent(mid.Key, mid.Rec)
			lvs := leavesOf(tr)
			if len(lvs) != 2 || lvs[1].nkeys.Load() != fanout/2 {
				t.Fatalf("%d leaves after a split, want 2 with %d keys on the right", len(lvs), fanout/2)
			}
			if left, right := lvs[0].block() != nil, lvs[1].block() != nil; !left || right != c.highsLong {
				t.Fatalf("left and right leaves have suffix blocks %v and %v, want true and %v", left, right, c.highsLong)
			}
			want := append(order, mid)
			slices.SortFunc(want, func(a, b Item) int { return bytes.Compare(a.Key, b.Key) })
			checkTree(t, tr, want)
			for _, it := range want {
				if rec, _, _ := tr.Get(it.Key); rec != it.Rec {
					t.Fatalf("Get(%q) = %p, want %p", it.Key, rec, it.Rec)
				}
			}
		})
	}
}

// TestFirstLongKeyUnderReaders: readers Get and Scan a leaf of short keys
// while a writer gives it its first long keys, so the suffix block is
// published under them. Every read answers exactly, and race builds, which
// check everything but the validated slot reads, report nothing.
func TestFirstLongKeyUnderReaders(t *testing.T) {
	short := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", 2*i)) }
	long := func(i int) []byte { return []byte(fmt.Sprintf("k%02d-and-a-long-suffix", 2*i+1)) }
	for round := 0; round < 50; round++ {
		tr := New()
		var items []Item
		for i := 0; i < fanout/2; i++ {
			items = append(items, Item{Key: short(i), Rec: mkrec(byte(i))})
			tr.InsertIfAbsent(short(i), items[i].Rec)
		}
		var stop atomic.Bool
		var wg, running sync.WaitGroup
		errs := make(chan error, 2) // the first error of each reader
		fail := func(err error) {
			select {
			case errs <- err:
			default: // one is enough
			}
		}
		wg.Add(2)
		running.Add(2)
		go func() { // Get: short keys always there, long keys once inserted
			defer wg.Done()
			running.Done()
			for i := 0; !stop.Load(); i++ {
				if rec, _, _ := tr.Get(short(i % (fanout / 2))); rec != items[i%(fanout/2)].Rec {
					fail(fmt.Errorf("Get(%q) = %p, want %p", short(i%(fanout/2)), rec, items[i%(fanout/2)].Rec))
					return
				}
				if rec, _, _ := tr.Get(long(i % (fanout / 2))); rec != nil && rec.DataLen() != 1 {
					fail(fmt.Errorf("Get(%q) found a record that is not its own", long(i%(fanout/2))))
					return
				}
			}
		}()
		go func() { // Scan: the short keys in order, long keys only whole
			defer wg.Done()
			running.Done()
			for !stop.Load() {
				var prev []byte
				n := 0
				tr.Scan([]byte("k"), nil, nil, func(k []byte, rec *record.Record) bool {
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						fail(fmt.Errorf("scan out of order: %q after %q", k, prev))
					}
					if len(k) > inlineBytes && !bytes.Equal(k, long(int(k[1]-'0')*5+int(k[2]-'0')/2)) {
						fail(fmt.Errorf("scan read long key %q", k))
					}
					if len(k) <= inlineBytes {
						n++
					}
					prev = append(prev[:0], k...)
					return true
				})
				if n != fanout/2 {
					fail(fmt.Errorf("scan saw %d short keys, want %d", n, fanout/2))
				}
				if len(errs) > 0 {
					return
				}
			}
		}()
		running.Wait()
		for i := 0; i < fanout/2; i++ {
			tr.InsertIfAbsent(long(i), record.New(tid.Make(1, 1), []byte{byte(i)}))
		}
		stop.Store(true)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		if lf := leavesOf(tr); len(lf) != 1 || lf[0].block() == nil {
			t.Fatalf("round %d: %d leaves, the first with a suffix block: %v", round, len(lf), lf[0].block() != nil)
		}
	}
}

// TestSlotOrder: comparing keys in slot form orders them as bytes.Compare
// does, across both word boundaries, zero padding and suffixes.
func TestSlotOrder(t *testing.T) {
	var keys [][]byte
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 18, 33, MaxKeyLen} {
		for _, fill := range []byte{0x00, 0x01, 0x7F, 0xFF} {
			k := bytes.Repeat([]byte{fill}, n)
			keys = append(keys, k, append(bytes.Clone(k[:n-1]), 0x00), append(bytes.Clone(k[:n-1]), 0xFF))
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			pa, pb := probeOf(a), probeOf(b)
			ka := makeKey(a)
			var s slots
			s.put(0, ka)
			want := bytes.Compare(a, b)
			if got := compare(&pa, &pb); got != want {
				t.Fatalf("compare(%x, %x) = %d, want %d", a, b, got, want)
			}
			if got := s.cmpAt(0, &pb); got != want {
				t.Fatalf("cmpAt(%x, %x) = %d, want %d", a, b, got, want)
			}
		}
		k := makeKey(a)
		if err := k.check(); err != nil || !bytes.Equal(k.appendTo(nil), a) {
			t.Fatalf("%x in slot form: %v, reads back %x", a, err, k.appendTo(nil))
		}
	}
}

// keyFuzz decodes FuzzTreeKeys's input.
type keyFuzz struct{ data []byte }

func (f *keyFuzz) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

// edgeLens are the key lengths around the slot form's boundaries: the end
// of the first word, of the second, and of the longest key.
var edgeLens = [8]int{7, 8, 9, 15, 16, 17, 1, MaxKeyLen}

// key builds a key from four bytes: its length (any, or — high bit set — an
// edge length), its fill (all 0x00, all 0xFF, all 'k' or ascending bytes, so
// that keys share long prefixes) and one byte set at one position.
func (f *keyFuzz) key() []byte {
	l, fill, at, v := f.next(), f.next(), f.next(), f.next()
	n := 1 + int(l)%MaxKeyLen
	if l&0x80 != 0 {
		n = edgeLens[l%8]
	}
	k := make([]byte, n)
	for i := range k {
		k[i] = [4]byte{0x00, 0xFF, 'k', byte(i)}[fill%4]
	}
	k[int(at)%n] = v
	return k
}

// FuzzTreeKeys runs random inserts, removes, Gets, sorted GetBatches and
// bounded Scans over keys built to stress the slot encoding, and checks
// every answer against a model ordered by bytes.Compare, with
// CheckInvariants after every batch of operations. At the end the model's
// keys are built into a tree, cut with SplitKeys and built again from the
// cuts, which must give the same tree; and every pairing of one slot's
// length with another slot's suffix — what a racy reader can tear — must
// read the suffix only as far as the suffix's own length.
func FuzzTreeKeys(f *testing.F) {
	f.Add([]byte{0, 0x80, 0, 0, 1, 0, 0x85, 1, 16, 2, 0, 0x85, 1, 16, 3, 5, 0x87, 1, 20, 9, 6, 0, 3, 0, 1})
	f.Add(bytes.Repeat([]byte{7, 50, 0x85, 0, 16, 0xFF, 7, 40, 0x87, 1, 61, 0}, 8))
	// Mixed widths: 8-byte keys fill leaves, then 17-byte keys that extend
	// them arrive among them, ascending and descending, so nodes get their
	// suffix blocks mid-life and splits move long keys into fresh siblings
	// and short keys out of nodes that keep their blocks; then scans and
	// removes over both.
	for _, down := range []bool{false, true} {
		var mixed []byte
		for _, l := range []byte{0x81, 0x85} { // edge lengths 8 and 17
			for i := 0; i < 40; i++ {
				v := byte(i)
				if down {
					v = byte(39 - i)
				}
				mixed = append(mixed, 0, l, 2, 7, v) // insert "kkkkkkk"+v, padded with 'k' to the length
			}
		}
		for i := 0; i < 40; i += 3 {
			mixed = append(mixed, 6, 0x81, 2, 7, byte(i), 0x85, 2, 7, byte(i+9), 12) // scan 12 from a short key to a long one
			mixed = append(mixed, 3, 0x85-byte(i%2)*4, 2, 7, byte(i))                // remove a long key or a short one
		}
		f.Add(mixed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fz := &keyFuzz{data: data}
		tr := New()
		var model []Item // sorted by key
		find := func(k []byte) (int, bool) {
			return slices.BinarySearchFunc(model, k, func(it Item, k []byte) int { return bytes.Compare(it.Key, k) })
		}
		lookup := func(k []byte) *record.Record {
			if i, ok := find(k); ok {
				return model[i].Rec
			}
			return nil
		}
		insert := func(k []byte) {
			rec := mkrec(byte(len(model)))
			cur, inserted, _ := tr.InsertIfAbsent(k, rec)
			i, ok := find(k)
			if ok {
				if inserted || cur != model[i].Rec {
					t.Fatalf("insert of present %x: inserted %v, record %p, want %p", k, inserted, cur, model[i].Rec)
				}
				return
			}
			if !inserted || cur != rec {
				t.Fatalf("insert of absent %x refused", k)
			}
			model = slices.Insert(model, i, Item{Key: k, Rec: rec})
		}
		for step := 1; len(fz.data) > 0; step++ {
			switch op := fz.next(); op % 8 {
			case 0, 1, 2:
				insert(fz.key())
			case 3:
				k := fz.key()
				removed, _ := tr.Remove(k)
				i, ok := find(k)
				if removed != ok {
					t.Fatalf("remove %x: %v, model has it: %v", k, removed, ok)
				}
				if ok {
					model = slices.Delete(model, i, i+1)
				}
			case 4:
				k := fz.key()
				if rec, _, _ := tr.Get(k); rec != lookup(k) {
					t.Fatalf("Get(%x) = %p, want %p", k, rec, lookup(k))
				}
			case 5:
				batch := make([][]byte, 1+int(fz.next())%8)
				for i := range batch {
					batch[i] = fz.key()
				}
				slices.SortFunc(batch, bytes.Compare)
				seen := 0
				tr.GetBatch(batch, func(i int, rec *record.Record, _ *Node, _ uint64) bool {
					if i != seen || rec != lookup(batch[i]) {
						t.Fatalf("GetBatch answer %d for key %d (%x): %p, want %p", seen, i, batch[i], rec, lookup(batch[i]))
					}
					seen++
					return true
				})
				if seen != len(batch) {
					t.Fatalf("GetBatch answered %d of %d keys", seen, len(batch))
				}
			case 6:
				lo, hi, limit := fz.key(), fz.key(), int(fz.next())
				if op&0x80 != 0 {
					hi = nil
				} else if bytes.Compare(lo, hi) > 0 {
					lo, hi = hi, lo
				}
				var want, got []Item
				for i, _ := find(lo); i < len(model) && len(want) < limit; i++ {
					if hi != nil && bytes.Compare(model[i].Key, hi) >= 0 {
						break
					}
					want = append(want, model[i])
				}
				if limit > 0 {
					tr.Scan(lo, hi, nil, func(k []byte, rec *record.Record) bool {
						got = append(got, Item{Key: bytes.Clone(k), Rec: rec})
						return len(got) < limit
					})
				}
				if !slices.EqualFunc(got, want, func(a, b Item) bool { return bytes.Equal(a.Key, b.Key) && a.Rec == b.Rec }) {
					t.Fatalf("Scan [%x, %x) limit %d: %d keys, want %d", lo, hi, limit, len(got), len(want))
				}
			case 7:
				// An ascending run from one key: leaves and inner nodes split.
				base, run := fz.key(), int(fz.next())%64
				for i := 0; i < run; i++ {
					k := bytes.Clone(base)
					if len(k) >= 2 {
						binary.BigEndian.PutUint16(k[len(k)-2:], uint16(i)+binary.BigEndian.Uint16(base[len(k)-2:]))
					} else {
						k[0] = byte(i)
					}
					insert(k)
				}
			}
			if step%16 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkTree(t, tr, model)
		checkTornPairs(t, tr)

		built := New()
		built.Build(1, model)
		checkTree(t, built, model)
		checkTornPairs(t, built)
		parts := 2 + len(model)%7
		cuts := built.SplitKeys(parts)
		var runs [][]Item
		rest := model
		for i, c := range cuts {
			if i > 0 && bytes.Compare(cuts[i-1], c) >= 0 {
				t.Fatalf("split keys do not ascend: %x", cuts)
			}
			if lookup(c) == nil {
				t.Fatalf("split key %x is no key of the built tree", c)
			}
			n, _ := slices.BinarySearchFunc(rest, c, func(it Item, c []byte) int { return bytes.Compare(it.Key, c) })
			runs, rest = append(runs, rest[:n]), rest[n:]
		}
		rebuilt := New()
		rebuilt.Build(1, append(runs, rest)...)
		checkTree(t, rebuilt, model)
		if again := rebuilt.SplitKeys(parts); !slices.EqualFunc(again, cuts, bytes.Equal) {
			t.Fatalf("a tree rebuilt from its split keys splits at %x, the first at %x", again, cuts)
		}
	})
}

// checkTree checks tr's invariants and that it holds exactly the model's
// items, in order.
func checkTree(t *testing.T, tr *Tree, model []Item) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(model) {
		t.Fatalf("tree holds %d keys, model %d", tr.Len(), len(model))
	}
	n := 0
	tr.Scan([]byte{0}, nil, nil, func(k []byte, rec *record.Record) bool {
		if n >= len(model) || !bytes.Equal(k, model[n].Key) || rec != model[n].Rec {
			t.Fatalf("scan position %d: %x", n, k)
		}
		n++
		return true
	})
	if n != len(model) {
		t.Fatalf("scan saw %d keys, model holds %d", n, len(model))
	}
}

// checkTornPairs pairs every long key's length in a leaf with every other
// long key's suffix, as a reader racing a slot shift can, and checks that
// reading and comparing the pair goes exactly as far as the suffix's own
// length says.
func checkTornPairs(t *testing.T, tr *Tree) {
	t.Helper()
	for _, lf := range leavesOf(tr) {
		nk := int(lf.nkeys.Load())
		for i := 0; i < nk; i++ {
			for j := 0; j < nk; j++ {
				ki, kj := lf.get(i), lf.get(j)
				if ki.n <= inlineBytes || kj.n <= inlineBytes {
					continue
				}
				torn := ki
				torn.sfx = kj.sfx
				got := torn.appendTo(nil)
				if want := int(kj.n); len(got) != want {
					t.Fatalf("%d-byte length over a %d-byte key's suffix reads %d bytes, want %d", ki.n, kj.n, len(got), want)
				}
				var s slots
				s.put(0, torn)
				if p := probeOf(got); s.cmpAt(0, &p) != 0 {
					t.Fatalf("%d-byte length over a %d-byte key's suffix compares unequal to what it reads", ki.n, kj.n)
				}
			}
		}
	}
}
