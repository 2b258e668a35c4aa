package index

import (
	"bytes"
	"encoding/binary"
	"testing"

	"silo/internal/core"
)

func mustRun(t *testing.T, w *core.Worker, fn func(tx *core.Tx) error) {
	t.Helper()
	if err := runTx(w, fn); err != nil {
		t.Fatal(err)
	}
}

// TestSpecTransforms pins the transform vocabulary's semantics: reverse
// turns a little-endian field big-endian, invert complements for
// descending order, and the two compose reverse-first.
func TestSpecTransforms(t *testing.T) {
	pk := []byte{0xAA, 0xBB}
	val := []byte{0x01, 0x02, 0x03, 0x04}

	for _, tc := range []struct {
		name string
		segs []Seg
		want []byte
	}{
		{"plain", []Seg{{FromValue: true, Off: 0, Len: 4}}, []byte{0x01, 0x02, 0x03, 0x04}},
		{"reverse", []Seg{{FromValue: true, Off: 0, Len: 4, Xform: XformReverse}}, []byte{0x04, 0x03, 0x02, 0x01}},
		{"invert", []Seg{{FromValue: true, Off: 0, Len: 4, Xform: XformInvert}}, []byte{0xFE, 0xFD, 0xFC, 0xFB}},
		{"reverse+invert", []Seg{{FromValue: true, Off: 0, Len: 4, Xform: XformReverse | XformInvert}}, []byte{0xFB, 0xFC, 0xFD, 0xFE}},
		{"composite", []Seg{
			{Off: 0, Len: 2},
			{FromValue: true, Off: 1, Len: 2, Xform: XformReverse},
		}, []byte{0xAA, 0xBB, 0x03, 0x02}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fn, err := compileSpec(tc.segs)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := fn(nil, pk, val)
			if !ok || !bytes.Equal(got, tc.want) {
				t.Fatalf("got %x ok=%v, want %x", got, ok, tc.want)
			}
		})
	}
}

// TestSpecTransformOrdering proves the point of each transform at the tree
// level: reversed little-endian counters sort numerically, inverted fields
// sort descending.
func TestSpecTransformOrdering(t *testing.T) {
	le := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

	rev, err := compileSpec([]Seg{{FromValue: true, Off: 0, Len: 4, Xform: XformReverse}})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := rev(nil, nil, le(255))
	b, _ := rev(nil, nil, le(256))
	if bytes.Compare(a, b) >= 0 {
		t.Fatalf("reversed LE 255 %x does not sort below 256 %x", a, b)
	}

	inv, err := compileSpec([]Seg{{Off: 0, Len: 4, Xform: XformInvert}})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := inv(nil, binary.BigEndian.AppendUint32(nil, 10), nil)
	hi, _ := inv(nil, binary.BigEndian.AppendUint32(nil, 11), nil)
	if bytes.Compare(hi, lo) >= 0 {
		t.Fatalf("inverted 11 %x does not sort before 10 %x", hi, lo)
	}
}

func TestValidateSpecRejectsUnknownTransform(t *testing.T) {
	if err := ValidateSpec([]Seg{{Off: 0, Len: 1, Xform: 0x80}}); err == nil {
		t.Fatal("unknown transform bits accepted")
	}
	if err := ValidateSpec([]Seg{{Off: 0, Len: 1, Xform: XformReverse | XformInvert}}); err != nil {
		t.Fatalf("composed transform rejected: %v", err)
	}
}

// TestBackfillShortRowFailsForSpecIndex pins the declarative-backfill
// contract: a pre-existing row too short for the declared spec fails the
// backfill with an error naming the offending key instead of silently
// leaving the row unindexed, and once the row fits the backfill completes.
func TestBackfillShortRowFailsForSpecIndex(t *testing.T) {
	s := newStore(t, 1)
	w := s.Worker(0)
	tbl := s.CreateTable("rows")
	mustRun(t, w, func(tx *core.Tx) error {
		if err := tx.Insert(tbl, []byte("long"), []byte{1, 2, 3, 4, 5, 6}); err != nil {
			return err
		}
		return tx.Insert(tbl, []byte("shrt"), []byte{1, 2})
	})

	ix := mustNew(t, s, tbl, "rows_ix", false, []Seg{{FromValue: true, Off: 0, Len: 4}})
	if err := ix.Backfill(w); err == nil {
		t.Fatal("backfill over a too-short row succeeded for a spec index")
	} else if !bytes.Contains([]byte(err.Error()), []byte("73687274")) && !bytes.Contains([]byte(err.Error()), []byte("shrt")) {
		t.Fatalf("error does not name the offending key: %v", err)
	}
	mustRun(t, w, func(tx *core.Tx) error {
		return tx.Put(tbl, []byte("shrt"), []byte{9, 9, 9, 9})
	})
	if err := ix.Backfill(w); err != nil {
		t.Fatalf("backfill after fixing the row: %v", err)
	}
	n := 0
	mustRun(t, w, func(tx *core.Tx) error {
		n = 0
		return ScanEntries(tx, ix, []byte{0}, nil, func(_, _ []byte) bool { n++; return true })
	})
	if n != 2 {
		t.Fatalf("backfill indexed %d rows, want 2", n)
	}
}
