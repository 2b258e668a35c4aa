package plainbtree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }

func TestBasic(t *testing.T) {
	tr := New()
	if tr.Get([]byte("x")) != nil {
		t.Fatal("empty tree found key")
	}
	tr.Put([]byte("x"), []byte("1"))
	if string(tr.Get([]byte("x"))) != "1" {
		t.Fatal("get after put")
	}
	tr.Put([]byte("x"), []byte("2"))
	if string(tr.Get([]byte("x"))) != "2" || tr.Len() != 1 {
		t.Fatal("overwrite")
	}
}

func TestManyOrdersAndSplits(t *testing.T) {
	for name, perm := range map[string][]int{
		"asc":  seq(0, 5000),
		"desc": rev(5000),
		"rand": rand.New(rand.NewSource(9)).Perm(5000),
	} {
		t.Run(name, func(t *testing.T) {
			tr := New()
			for _, i := range perm {
				tr.Put(key(i), []byte{byte(i)})
			}
			if tr.Len() != 5000 {
				t.Fatalf("Len=%d", tr.Len())
			}
			for i := 0; i < 5000; i++ {
				if v := tr.Get(key(i)); v == nil || v[0] != byte(i) {
					t.Fatalf("key %d: %v", i, v)
				}
			}
			// Ordered full scan.
			prev := ""
			n := 0
			tr.Scan(key(0), nil, func(k, v []byte) bool {
				if prev != "" && string(k) <= prev {
					t.Fatalf("out of order at %q", k)
				}
				prev = string(k)
				n++
				return true
			})
			if n != 5000 {
				t.Fatalf("scan saw %d", n)
			}
		})
	}
}

func seq(lo, hi int) []int {
	p := make([]int, hi-lo)
	for i := range p {
		p[i] = lo + i
	}
	return p
}

func rev(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = n - 1 - i
	}
	return p
}

func TestScanRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i += 3 {
		tr.Put(key(i), nil)
	}
	var got []string
	tr.Scan(key(10), key(30), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"key000012", "key000015", "key000018", "key000021", "key000024", "key000027"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v", got)
	}
	// Early stop.
	n := 0
	tr.Scan(key(0), nil, func(k, _ []byte) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop n=%d", n)
	}
}

func TestAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		model := map[string]byte{}
		for op := 0; op < 600; op++ {
			k := key(rng.Intn(150))
			switch rng.Intn(3) {
			case 0, 1:
				v := byte(rng.Intn(256))
				tr.Put(k, []byte{v})
				model[string(k)] = v
			case 2:
				v := tr.Get(k)
				mv, ok := model[string(k)]
				if ok != (v != nil) {
					return false
				}
				if ok && v[0] != mv {
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		var want []string
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		tr.Scan([]byte("k"), nil, func(k, _ []byte) bool {
			got = append(got, string(k))
			return true
		})
		return fmt.Sprint(got) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
