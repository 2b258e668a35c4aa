package btree

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"unsafe"

	"silo/internal/record"
)

// TestNodeSize: sixteen keys in slot form and their records or children
// fit a 576-byte allocation, where sixteen 64-byte inline key slots took
// 1 280 bytes.
func TestNodeSize(t *testing.T) {
	if l, i := unsafe.Sizeof(leaf{}), unsafe.Sizeof(inner{}); l > 576 || i > 576 {
		t.Fatalf("leaf %d bytes, inner %d bytes; want both within 576", l, i)
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
