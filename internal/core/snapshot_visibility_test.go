package core

import (
	"encoding/binary"
	"testing"
)

// TestSnapshotGroupBoundaryVisibility is the deterministic regression test
// for a snapshot-tearing bug: writers preserve an old version only when a
// write crosses a snapshot-group boundary, so version chains hold each
// group's final version and nothing else. Snapshot visibility must
// therefore be "epoch strictly below the snapshot boundary sew". The buggy
// predicate (epoch ≤ sew) read mid-group versions that a same-group
// overwrite silently discards, producing a cut that mixes transaction
// prefixes.
//
// Construction (SnapshotK = 2, epochs driven manually):
//
//	epoch 1: A=100, B=100, C=100           (group [0,1])
//	epoch 4: transfer 30 A→B               (group [4,5]; epoch-1 versions preserved)
//	epoch 5: transfer 10 A→C               (same group; epoch-4 versions NOT preserved)
//	epoch 6: SE = snap(6−2) = 4
//
// A snapshot at sew=4 with the buggy predicate reads B's live epoch-4
// version (130) but falls past A's lost epoch-4 version to its epoch-1
// copy (100): total 330 ≠ 300. The correct predicate reads the final
// state of the groups before 4 — A=B=C=100 — for every interleaving.
func TestSnapshotGroupBoundaryVisibility(t *testing.T) {
	opts := DefaultOptions(1)
	opts.SnapshotK = 2
	opts.ManualEpochs = true
	s := NewStore(opts)
	defer s.Close()
	tbl := s.CreateTable("t")
	w := s.Worker(0)

	key := func(name string) []byte { return []byte(name) }
	val := func(v uint64) []byte {
		b := make([]byte, 8)
		binary.BigEndian.PutUint64(b, v)
		return b
	}
	transfer := func(from, to string, amt uint64) {
		if err := w.Run(func(tx *Tx) error {
			fv, err := tx.Get(tbl, key(from))
			if err != nil {
				return err
			}
			tv, err := tx.Get(tbl, key(to))
			if err != nil {
				return err
			}
			f := binary.BigEndian.Uint64(fv)
			g := binary.BigEndian.Uint64(tv)
			binary.BigEndian.PutUint64(fv, f-amt)
			binary.BigEndian.PutUint64(tv, g+amt)
			if err := tx.Put(tbl, key(from), fv); err != nil {
				return err
			}
			return tx.Put(tbl, key(to), tv)
		}); err != nil {
			t.Fatalf("transfer %s->%s: %v", from, to, err)
		}
	}
	advance := func(want uint64) {
		s.AdvanceEpoch()
		if g := s.Epochs().Global(); g != want {
			t.Fatalf("global epoch = %d, want %d", g, want)
		}
	}

	// Epoch 1: initial balances.
	if err := w.Run(func(tx *Tx) error {
		for _, k := range []string{"A", "B", "C"} {
			if err := tx.Insert(tbl, key(k), val(100)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	advance(2)
	advance(3)
	advance(4)
	transfer("A", "B", 30) // commit epoch 4
	advance(5)
	transfer("A", "C", 10) // commit epoch 5, replaces A's epoch-4 version in place
	advance(6)

	if se := s.Epochs().SnapshotGlobal(); se != 4 {
		t.Fatalf("snapshot epoch = %d, want 4", se)
	}

	if err := w.RunSnapshot(func(stx *SnapTx) error {
		if e := stx.Epoch(); e != 4 {
			t.Fatalf("stx.Epoch() = %d, want 4", e)
		}
		var total uint64
		n := 0
		if err := stx.Scan(tbl, key("A"), nil, func(_, v []byte) bool {
			total += binary.BigEndian.Uint64(v)
			n++
			return true
		}); err != nil {
			return err
		}
		if n != 3 || total != 300 {
			t.Errorf("snapshot cut: n=%d total=%d, want n=3 total=300", n, total)
		}
		// The visible versions must be the final pre-group-4 state, not a
		// mix of transaction prefixes.
		for _, k := range []string{"A", "B", "C"} {
			v, err := stx.Get(tbl, key(k))
			if err != nil {
				return err
			}
			if got := binary.BigEndian.Uint64(v); got != 100 {
				t.Errorf("snapshot %s = %d, want 100", k, got)
			}
		}
		// GetBatch resolves every key, present or not, exactly as Get does.
		keys := [][]byte{key("A"), key("B"), key("C"), key("D")}
		return stx.GetBatch(tbl, keys, func(i int, val []byte, err error) bool {
			got := string(val) // val is only valid until the next read
			want, werr := stx.Get(tbl, keys[i])
			if err != werr || got != string(want) {
				t.Errorf("GetBatch %s = %x, %v; Get = %x, %v", keys[i], got, err, want, werr)
			}
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}

	// The serializable view, by contrast, sees both transfers.
	want := map[string]uint64{"A": 60, "B": 130, "C": 110}
	if err := w.Run(func(tx *Tx) error {
		for k, wv := range want {
			v, err := tx.Get(tbl, key(k))
			if err != nil {
				return err
			}
			if got := binary.BigEndian.Uint64(v); got != wv {
				t.Errorf("live %s = %d, want %d", k, got, wv)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
