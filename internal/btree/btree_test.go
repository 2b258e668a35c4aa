package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"silo/internal/record"
	"silo/internal/tid"
)

func mkrec(v byte) *record.Record {
	return record.New(tid.Make(1, 1).WithLatest(true), []byte{v})
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len=%d", tr.Len())
	}
	rec, n, _ := tr.Get([]byte("missing"))
	if rec != nil {
		t.Fatal("found record in empty tree")
	}
	if n == nil {
		t.Fatal("no node handle for missing key")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGet(t *testing.T) {
	tr := New()
	const n = 1000
	for i := 0; i < n; i++ {
		r := mkrec(byte(i))
		cur, inserted, _ := tr.InsertIfAbsent(key(i), r)
		if !inserted || cur != r {
			t.Fatalf("insert %d failed", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len=%d want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		rec, _, _ := tr.Get(key(i))
		if rec == nil {
			t.Fatalf("key %d missing", i)
		}
		if rec.DataUnsafe()[0] != byte(i) {
			t.Fatalf("key %d wrong record", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := New()
	r1 := mkrec(1)
	tr.InsertIfAbsent([]byte("k"), r1)
	r2 := mkrec(2)
	cur, inserted, changes := tr.InsertIfAbsent([]byte("k"), r2)
	if inserted {
		t.Fatal("duplicate insert succeeded")
	}
	if cur != r1 {
		t.Fatal("duplicate insert returned wrong record")
	}
	if changes != nil {
		t.Fatal("duplicate insert reported version changes")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len=%d", tr.Len())
	}
}

func TestInsertDescendingAndRandom(t *testing.T) {
	for name, order := range map[string]func(n int) []int{
		"descending": func(n int) []int {
			p := make([]int, n)
			for i := range p {
				p[i] = n - 1 - i
			}
			return p
		},
		"random": func(n int) []int {
			p := rand.New(rand.NewSource(42)).Perm(n)
			return p
		},
	} {
		t.Run(name, func(t *testing.T) {
			tr := New()
			const n = 2000
			for _, i := range order(n) {
				tr.InsertIfAbsent(key(i), mkrec(byte(i)))
			}
			if tr.Len() != n {
				t.Fatalf("Len=%d", tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Full scan must see every key in order.
			i := 0
			tr.Scan(key(0), nil, nil, func(k []byte, _ *record.Record) bool {
				if !bytes.Equal(k, key(i)) {
					t.Fatalf("scan pos %d got %q", i, k)
				}
				i++
				return true
			})
			if i != n {
				t.Fatalf("scan saw %d keys", i)
			}
		})
	}
}

func TestRemove(t *testing.T) {
	tr := New()
	const n = 500
	for i := 0; i < n; i++ {
		tr.InsertIfAbsent(key(i), mkrec(byte(i)))
	}
	// Remove odd keys.
	for i := 1; i < n; i += 2 {
		removed, ch := tr.Remove(key(i))
		if !removed {
			t.Fatalf("remove %d failed", i)
		}
		if ch.Node == nil || ch.New == ch.Old {
			t.Fatalf("remove %d: bad version change %+v", i, ch)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len=%d", tr.Len())
	}
	for i := 0; i < n; i++ {
		rec, _, _ := tr.Get(key(i))
		if (i%2 == 0) != (rec != nil) {
			t.Fatalf("key %d presence wrong", i)
		}
	}
	if removed, _ := tr.Remove(key(1)); removed {
		t.Fatal("double remove succeeded")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveIf(t *testing.T) {
	tr := New()
	r := mkrec(1)
	tr.InsertIfAbsent([]byte("k"), r)
	if removed, _ := tr.RemoveIf([]byte("k"), func(c *record.Record) bool { return c != r }); removed {
		t.Fatal("RemoveIf removed despite false predicate")
	}
	if removed, _ := tr.RemoveIf([]byte("k"), func(c *record.Record) bool { return c == r }); !removed {
		t.Fatal("RemoveIf failed despite true predicate")
	}
	if tr.Len() != 0 {
		t.Fatal("key still present")
	}
}

func TestScanRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i += 2 {
		tr.InsertIfAbsent(key(i), mkrec(byte(i)))
	}
	var got []string
	tr.Scan(key(10), key(20), nil, func(k []byte, _ *record.Record) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"key000010", "key000012", "key000014", "key000016", "key000018"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v want %v", got, want)
	}

	// Early termination.
	count := 0
	tr.Scan(key(0), nil, nil, func(k []byte, _ *record.Record) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop count=%d", count)
	}

	// Empty range.
	count = 0
	tr.Scan(key(11), key(12), nil, func(k []byte, _ *record.Record) bool {
		count++
		return true
	})
	if count != 0 {
		t.Fatalf("empty range returned %d keys", count)
	}
}

func TestScanNodeSetCoversRange(t *testing.T) {
	tr := New()
	for i := 0; i < 64; i++ {
		tr.InsertIfAbsent(key(i), mkrec(byte(i)))
	}
	// The node versions reported by a scan must detect a subsequent insert
	// anywhere in the scanned range (phantom protection, §4.6).
	nodes := map[*Node]uint64{}
	tr.Scan(key(0), key(64), func(n *Node, v uint64) { nodes[n] = v }, func(_ []byte, _ *record.Record) bool { return true })
	if len(nodes) < 2 {
		t.Fatalf("expected several leaves, got %d", len(nodes))
	}
	unchanged := func() bool {
		for n, v := range nodes {
			if n.Version() != v {
				return false
			}
		}
		return true
	}
	if !unchanged() {
		t.Fatal("versions changed with no writes")
	}
	tr.InsertIfAbsent([]byte("key000031x"), mkrec(99))
	if unchanged() {
		t.Fatal("insert into scanned range left all node versions unchanged")
	}
}

func TestGetMissingNodeVersionDetectsInsert(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		tr.InsertIfAbsent(key(i*10), mkrec(byte(i)))
	}
	rec, n, v := tr.Get(key(55))
	if rec != nil {
		t.Fatal("unexpected record")
	}
	if n.Version() != v {
		t.Fatal("version changed with no writes")
	}
	tr.InsertIfAbsent(key(55), mkrec(55))
	if n.Version() == v {
		t.Fatal("insert of the missing key left node version unchanged")
	}
}

func TestInsertVersionChanges(t *testing.T) {
	tr := New()
	// Fill one leaf exactly.
	for i := 0; i < fanout; i++ {
		_, _, changes := tr.InsertIfAbsent(key(i), mkrec(byte(i)))
		if len(changes) != 1 || changes[0].Created {
			t.Fatalf("insert %d: unexpected changes %+v", i, changes)
		}
		if changes[0].New == changes[0].Old {
			t.Fatalf("insert %d: version did not change", i)
		}
	}
	// Next insert splits: must report the old leaf (not created) and the
	// new sibling (created).
	_, _, changes := tr.InsertIfAbsent(key(fanout), mkrec(0))
	var created, existing int
	for _, ch := range changes {
		if ch.Created {
			created++
		} else {
			existing++
		}
	}
	if created < 1 || existing < 1 {
		t.Fatalf("split changes: created=%d existing=%d (%+v)", created, existing, changes)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLongKeysPanic(t *testing.T) {
	tr := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized key")
		}
	}()
	tr.InsertIfAbsent(make([]byte, MaxKeyLen+1), mkrec(0))
}

func TestEmptyKeyPanics(t *testing.T) {
	tr := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty key")
		}
	}()
	tr.Get(nil)
}

// TestAgainstMapModel exercises random operation sequences against a
// map+sort reference model.
func TestAgainstMapModel(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		model := map[string]byte{}
		for op := 0; op < 800; op++ {
			k := key(rng.Intn(200))
			switch rng.Intn(4) {
			case 0, 1: // insert
				v := byte(rng.Intn(256))
				_, inserted, _ := tr.InsertIfAbsent(k, mkrec(v))
				if _, ok := model[string(k)]; ok == inserted {
					return false
				}
				if inserted {
					model[string(k)] = v
				}
			case 2: // remove
				removed, _ := tr.Remove(k)
				if _, ok := model[string(k)]; ok != removed {
					return false
				}
				delete(model, string(k))
			case 3: // get
				rec, _, _ := tr.Get(k)
				v, ok := model[string(k)]
				if ok != (rec != nil) {
					return false
				}
				if ok && rec.DataUnsafe()[0] != v {
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		// Full scan equals sorted model.
		var want []string
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		var got []string
		tr.Scan([]byte("k"), nil, nil, func(k []byte, rec *record.Record) bool {
			got = append(got, string(k))
			if rec.DataUnsafe()[0] != model[string(k)] {
				return false
			}
			return true
		})
		return fmt.Sprint(got) == fmt.Sprint(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentInsertGet hammers the tree from several goroutines and
// verifies structure and content afterwards.
func TestConcurrentInsertGet(t *testing.T) {
	tr := New()
	const (
		goroutines = 8
		perG       = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				n := g*perG + i
				tr.InsertIfAbsent(key(n), mkrec(byte(n)))
				// Interleave reads of random existing keys.
				if i%3 == 0 {
					tr.Get(key(rng.Intn(n + 1)))
				}
				if i%7 == 0 {
					cnt := 0
					tr.Scan(key(rng.Intn(n+1)), nil, nil, func(_ []byte, _ *record.Record) bool {
						cnt++
						return cnt < 20
					})
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != goroutines*perG {
		t.Fatalf("Len=%d want %d", tr.Len(), goroutines*perG)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < goroutines*perG; n++ {
		rec, _, _ := tr.Get(key(n))
		if rec == nil {
			t.Fatalf("key %d missing after concurrent insert", n)
		}
	}
}

// TestConcurrentMixed adds removals and duplicate inserts.
func TestConcurrentMixed(t *testing.T) {
	tr := New()
	const keys = 512
	// Pre-fill half.
	for i := 0; i < keys; i += 2 {
		tr.InsertIfAbsent(key(i), mkrec(byte(i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 77))
			for i := 0; i < 4000; i++ {
				k := key(rng.Intn(keys))
				switch rng.Intn(3) {
				case 0:
					tr.InsertIfAbsent(k, mkrec(byte(i)))
				case 1:
					tr.Remove(k)
				case 2:
					tr.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
