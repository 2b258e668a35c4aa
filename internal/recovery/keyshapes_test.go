package recovery

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"silo/internal/btree"
)

// binKeys is binKey(0) … binKey(n−1).
func binKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = binKey(i)
	}
	return keys
}

// keyShape is a family of keys whose order the words — bytes 0–15,
// zero-padded, and the length — do not settle alone. keys returns n
// distinct keys of the family, in no particular order.
type keyShape struct {
	name string
	keys func(rng *rand.Rand, n int) [][]byte
}

// shapeBytes draws n bytes from a small alphabet, zeros included, so that
// drawn keys share prefixes and zero-padding shows.
func shapeBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = []byte{0x00, 0x01, 'k', 0xff}[rng.Intn(4)]
	}
	return b
}

// distinct collects keys from next until it has n different ones.
func distinct(n int, next func() []byte) [][]byte {
	seen := map[string]bool{}
	var keys [][]byte
	for len(keys) < n {
		if k := next(); !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	return keys
}

var keyShapes = []keyShape{
	// Every key is the same 16 bytes and then 0 to 8 more: the words of
	// any two tie, and their lengths or tails decide.
	{"shared-16", func(rng *rand.Rand, n int) [][]byte {
		return distinct(n, func() []byte {
			return append([]byte("sixteen-byte-pfx"), shapeBytes(rng, rng.Intn(9))...)
		})
	}},
	// k, k\x00 and k\x00\x00 for bases of 1 to 18 bytes: each pair ties on
	// its words wherever both end within 16 bytes, and the extensions of a
	// base of 14 to 16 bytes cross the 16th.
	{"zero-extended", func(rng *rand.Rand, n int) [][]byte {
		var base []byte
		ext := 3
		return distinct(n, func() []byte {
			if ext == 3 {
				base, ext = shapeBytes(rng, 1+rng.Intn(18)), 0
			}
			ext++
			return append(bytes.Clone(base), make([]byte, ext-1)...)
		})
	}},
	// Lengths 1–8, 9–16 and 17–62 in turn, each key often extending an
	// earlier one, so that prefixes are shared across the length classes.
	{"mixed-lengths", func(rng *rand.Rand, n int) [][]byte {
		var keys [][]byte
		class := 0
		return distinct(n, func() []byte {
			lo, hi := []int{1, 9, 17}[class], []int{8, 16, btree.MaxKeyLen}[class]
			class = (class + 1) % 3
			k := shapeBytes(rng, lo+rng.Intn(hi-lo+1))
			if len(keys) > 0 && rng.Intn(2) == 0 {
				prev := keys[rng.Intn(len(keys))]
				k = append(bytes.Clone(prev[:min(len(prev), len(k))]), k[min(len(prev), len(k)):]...)
			}
			keys = append(keys, k)
			return k
		})
	}},
}

// TestReplayKeyShapes recovers generated logs (buildRandomLog) over each
// key shape, from the checkpoint and the log and then from the log alone,
// at 1, 2 and 4 workers. Every recovery must hold what the sequential
// reference sequentialRecover and the generator's model hold, in trees that pass
// their invariant check — so the words ordered the keys, in the deal, the
// sort and the merge, exactly as bytes.Compare does (Build would refuse a
// key out of order).
func TestReplayKeyShapes(t *testing.T) {
	for i, sh := range keyShapes {
		t.Run(sh.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			lg := buildRandomLog(t, rng, "BC", sh.keys(rng, 120))
			ref, _ := catalogStore(t, manualOpts(), randomTables...)
			if _, err := sequentialRecover(ref, lg.dir); err != nil {
				t.Fatal(err)
			}
			checkRandomLog(t, "sequentialRecover", ref, lg)
			for _, source := range []string{"checkpoint+log", "log-only"} {
				if source == "log-only" {
					sets, _ := filepath.Glob(filepath.Join(lg.dir, "checkpoint.*"))
					for _, set := range sets {
						if err := os.RemoveAll(set); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, workers := range []int{1, 2, 4} {
					label := fmt.Sprintf("%s, workers=%d", source, workers)
					s, res, err := recoverDir(t, lg.dir, Options{Workers: workers})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if (res.CheckpointEpoch != 0) != (source == "checkpoint+log") {
						t.Fatalf("%s: recovered from checkpoint epoch %d", label, res.CheckpointEpoch)
					}
					checkRandomLog(t, label, s, lg)
				}
			}
		})
	}
}

// TestSortWinners is the property test of the span sort: over random keys
// of every shape, with many winners tying on both words, sortWinners puts
// them in the order slices.SortFunc with bytes.Compare does, whichever of
// its two buffers it returns.
func TestSortWinners(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	shapes := append(slices.Clone(keyShapes), keyShape{"ids", func(_ *rand.Rand, n int) [][]byte { return binKeys(n) }})
	for _, sh := range shapes {
		for _, n := range []int{0, 1, 2, 17, 300, 5000} {
			keys := sh.keys(rng, n)
			ws := make([]winner, n)
			for i, k := range keys {
				w0, w1 := btree.KeyWords(k)
				ws[i] = winner{w0: w0, w1: w1, klen: uint8(len(k)), i: uint32(i)}
			}
			tie := func(a, b winner) int {
				c, tie := order(a.w0, a.w1, int(a.klen), b.w0, b.w1, int(b.klen))
				if tie {
					c = bytes.Compare(keys[a.i][inlineBytes:], keys[b.i][inlineBytes:])
				}
				return c
			}
			got := sortWinners(ws, make([]winner, n), tie)
			want := slices.SortedFunc(slices.Values(keys), bytes.Compare)
			for i := range want {
				if !bytes.Equal(keys[got[i].i], want[i]) {
					t.Fatalf("%s, %d keys: position %d holds %x, want %x", sh.name, n, i, keys[got[i].i], want[i])
				}
			}
		}
	}
}

// TestReplayItemsHoldNoPointer: items, winners and staged checkpoint rows
// are what recovery holds per entry, per winner and per checkpoint row, so
// they stay small, and the collector must scan neither the batches and
// winner chunks, nor the dealt spans, nor the staged runs.
func TestReplayItemsHoldNoPointer(t *testing.T) {
	for _, c := range []struct {
		v   any
		max uintptr
	}{{item{}, 64}, {winner{}, 24}, {row{}, 16}} {
		typ := reflect.TypeOf(c.v)
		if typ.Size() > c.max {
			t.Errorf("%v is %d bytes, want at most %d", typ, typ.Size(), c.max)
		}
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			default:
				t.Errorf("%v.%s is a %v", typ, f.Name, f.Type)
			}
		}
	}
}
