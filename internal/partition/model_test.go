package partition

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// modelKeys returns n keys of 1–40 bytes over a four-letter alphabet, so
// that keys collide, share prefixes and are prefixes of one another. Half
// of them start with one 16-byte prefix, the key bytes btree keeps inline,
// so their order is decided by what follows it.
func modelKeys(rng *rand.Rand, n int) [][]byte {
	shared := bytes.Repeat([]byte{'b'}, 16)
	keys := [][]byte{shared}
	for len(keys) < n {
		var k []byte
		if rng.Intn(2) == 0 {
			k = append(k, shared...)
		}
		for m := 1 + rng.Intn(40-len(k)); m > 0; m-- {
			k = append(k, 'a'+byte(rng.Intn(4)))
		}
		keys = append(keys, k)
	}
	return keys
}

// TestAgainstModel drives 3 partitions × 2 tables with seeded random Puts,
// Gets and Scans and checks every result against a map per table. Values
// take a few lengths, empty included, so an overwrite either keeps its
// length (rewritten in place) or grows or shrinks it (a new buffer).
func TestAgainstModel(t *testing.T) {
	const parts, tables, ops = 3, 2, 4000
	lens := []int{0, 1, 8, 8, 40, 300}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			keys := modelKeys(rng, 150)
			s := New(parts, tables)
			model := make([]map[string]string, parts*tables)
			for i := range model {
				model[i] = map[string]string{}
			}
			// want returns the model's rows of (p, tbl) in [lo, hi), at most
			// limit of them. A row is key=value, and '=' sorts below the
			// key alphabet, so rows sort in key order.
			want := func(p, tbl int, lo, hi []byte, limit int) []string {
				var rows []string
				for k, v := range model[p*tables+tbl] {
					if k >= string(lo) && (hi == nil || k < string(hi)) {
						rows = append(rows, k+"="+v)
					}
				}
				slices.Sort(rows)
				return rows[:min(limit, len(rows))]
			}
			scan := func(tx *Tx, p, tbl int, lo, hi []byte, limit int) []string {
				var rows []string
				tx.Scan(p, tbl, lo, hi, func(k, v []byte) bool {
					rows = append(rows, string(k)+"="+string(v))
					return len(rows) < limit
				})
				return rows
			}
			var buf []byte
			for op := 0; op < ops; op++ {
				p, tbl := rng.Intn(parts), rng.Intn(tables)
				m := model[p*tables+tbl]
				key := keys[rng.Intn(len(keys))]
				s.Run([]int{p}, func(tx *Tx) {
					switch r := rng.Intn(10); {
					case r < 5:
						v := make([]byte, lens[rng.Intn(len(lens))])
						rng.Read(v)
						tx.Put(p, tbl, key, v)
						m[string(key)] = string(v)
					case r < 8:
						var ok bool
						buf, ok = tx.Get(p, tbl, key, buf[:0])
						mv, mok := m[string(key)]
						if ok != mok || string(buf) != mv {
							t.Fatalf("op %d: Get(%d, %d, %q) = %q, %v; model %q, %v", op, p, tbl, key, buf, ok, mv, mok)
						}
					default:
						var hi []byte
						if rng.Intn(2) == 0 {
							hi = keys[rng.Intn(len(keys))]
						}
						limit := 1 + rng.Intn(20)
						got, w := scan(tx, p, tbl, key, hi, limit), want(p, tbl, key, hi, limit)
						if !slices.Equal(got, w) {
							t.Fatalf("op %d: Scan(%d, %d, %q, %q) limit %d = %q; model %q", op, p, tbl, key, hi, limit, got, w)
						}
					}
				})
			}
			for p := 0; p < parts; p++ {
				for tbl := 0; tbl < tables; tbl++ {
					s.Run([]int{p}, func(tx *Tx) {
						got, w := scan(tx, p, tbl, []byte{0}, nil, len(keys)+1), want(p, tbl, []byte{0}, nil, len(keys)+1)
						if !slices.Equal(got, w) {
							t.Errorf("partition %d table %d: %d rows, model %d", p, tbl, len(got), len(w))
						}
					})
				}
			}
		})
	}
}
