package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"silo/internal/core"
)

// scan_property_test.go is the scan-equivalence property battery: for
// randomized tables, specs, include lists, and workloads, every index read
// — resolving Scan in full and bounded, ScanEntries, index-only
// ScanCovering in full and bounded, and unique Lookup — must agree exactly
// with a naive reference (entries-only scan + one point read per entry),
// under a serializable transaction and under a snapshot that covers the
// same writes.

const propRowWidth = 24 // fixed row width; specs index fixed offsets

// propSpec draws a random segment list over the row layout, keeping total
// width small enough for entry keys (pk is 5 bytes, entry key ≤ 62).
func propSpec(rng *rand.Rand, maxSegs, maxWidth int) []Seg {
	n := 1 + rng.Intn(maxSegs)
	var segs []Seg
	width := 0
	for i := 0; i < n; i++ {
		ln := 1 + rng.Intn(4)
		if width+ln > maxWidth {
			break
		}
		width += ln
		if rng.Intn(4) == 0 {
			// From the primary key ("p%04d": 5 bytes).
			off := rng.Intn(5 - minInt(ln, 5) + 1)
			segs = append(segs, Seg{Off: off, Len: minInt(ln, 5)})
		} else {
			segs = append(segs, Seg{FromValue: true, Off: rng.Intn(propRowWidth - ln + 1), Len: ln})
		}
	}
	if len(segs) == 0 {
		segs = []Seg{{FromValue: true, Off: 0, Len: 2}}
	}
	return segs
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

type propTriple struct{ sk, pk, val string }

// propBound is the max of the bounded reads.
const propBound = 5

func TestScanEquivalenceProperty(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
			s := newStore(t, 2)
			tbl := s.CreateTable("rows")
			w := s.Worker(0)

			keySpec := propSpec(rng, 3, 12)
			include := propSpec(rng, 3, 12)
			ix := mustNew(t, s, tbl, "rows_ix", false, keySpec, include...)
			byPK := mustNew(t, s, tbl, "rows_pk", true, []Seg{{Off: 0, Len: 5}})

			// Random workload: inserts, updates, deletes over a small key
			// space so updates and deletes hit existing rows often.
			const keys = 80
			ops := 150 + rng.Intn(150)
			pk := func(i int) []byte { return []byte(fmt.Sprintf("p%04d", i)) }
			rowOf := func() []byte {
				v := make([]byte, propRowWidth)
				rng.Read(v)
				return v
			}
			for i := 0; i < ops; i++ {
				k := pk(rng.Intn(keys))
				if err := runTx(w, func(tx *core.Tx) error {
					switch rng.Intn(5) {
					case 0: // delete (missing is fine)
						if err := tx.Delete(tbl, k); err != core.ErrNotFound {
							return err
						}
						return nil
					default: // upsert
						err := tx.Insert(tbl, k, rowOf())
						if err == core.ErrKeyExists {
							return tx.Put(tbl, k, rowOf())
						}
						return err
					}
				}); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			coverWithSnapshot(s)

			// Random scan bounds over entry-key space (nil hi sometimes).
			lo := []byte{0}
			var hi []byte
			if rng.Intn(2) == 0 {
				b := make([]byte, 1+rng.Intn(3))
				rng.Read(b)
				lo = b
			}
			if rng.Intn(2) == 0 {
				b := make([]byte, 1+rng.Intn(3))
				rng.Read(b)
				if bytes.Compare(b, lo) > 0 {
					hi = b
				}
			}

			proj, err := compileSpec(include)
			if err != nil {
				t.Fatal(err)
			}
			// Every read of one reader runs inside one transaction:
			// identical state by construction, and the serializable run
			// commits, so every observation validated.
			check := func(kind string, r core.Reader) error {
				ref, err := propReference(r, ix, tbl, lo, hi)
				if err != nil {
					return err
				}
				bounded := ref[:minInt(propBound, len(ref))]
				for _, max := range []int{0, propBound} {
					var got []propTriple
					if err := Scan(r, ix, lo, hi, max, func(sk, pk, val []byte) bool {
						got = append(got, propTriple{string(sk), string(pk), string(val)})
						return true
					}); err != nil {
						return err
					}
					want := ref
					if max > 0 {
						want = bounded
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s: scan (max %d) diverged from reference:\n got %v\nwant %v", kind, max, got, want)
					}

					var covering []propTriple
					if err := ScanCovering(r, ix, lo, hi, max, func(sk, pk, fields []byte) bool {
						covering = append(covering, propTriple{string(sk), string(pk), string(fields)})
						return true
					}); err != nil {
						return err
					}
					if len(covering) != len(want) {
						t.Errorf("%s: covering scan (max %d) returned %d entries, reference %d", kind, max, len(covering), len(want))
						continue
					}
					var pb []byte
					for i := range want {
						fields, ok := proj(pb[:0], []byte(want[i].pk), []byte(want[i].val))
						pb = fields
						if !ok {
							t.Errorf("%s: entry %d: row no longer projects under the include list", kind, i)
							continue
						}
						if covering[i].sk != want[i].sk || covering[i].pk != want[i].pk || covering[i].val != string(fields) {
							t.Errorf("%s: covering entry %d = %+v, want sk=%q pk=%q fields=%x",
								kind, i, covering[i], want[i].sk, want[i].pk, fields)
						}
					}
				}

				for _, e := range ref {
					gotPK, val, err := Lookup(r, byPK, []byte(e.pk))
					if err != nil || string(gotPK) != e.pk || string(val) != e.val {
						t.Errorf("%s: Lookup(%q) = %q, %x, %v; want the row", kind, e.pk, gotPK, val, err)
					}
				}
				if _, _, err := Lookup(r, byPK, pk(keys)); err != core.ErrNotFound {
					t.Errorf("%s: Lookup of a key never written: %v, want ErrNotFound", kind, err)
				}
				return nil
			}
			if err := runTx(w, func(tx *core.Tx) error { return check("tx", tx) }); err != nil {
				t.Fatal(err)
			}
			if err := w.RunSnapshot(func(stx *core.SnapTx) error { return check("snapshot", stx) }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// propReference is the naive reading of ix over [lo, hi): its entries,
// each resolved by its own point read.
func propReference(r core.Reader, ix *Index, tbl *core.Table, lo, hi []byte) ([]propTriple, error) {
	var ref []propTriple
	if err := ScanEntries(r, ix, lo, hi, func(sk, pk []byte) bool {
		ref = append(ref, propTriple{sk: string(sk), pk: string(pk)})
		return true
	}); err != nil {
		return nil, err
	}
	for i := range ref {
		v, err := r.GetAppend(tbl, []byte(ref[i].pk), nil)
		if err != nil {
			return nil, fmt.Errorf("reference resolve %q: %w", ref[i].pk, err)
		}
		ref[i].val = string(v)
	}
	return ref, nil
}
