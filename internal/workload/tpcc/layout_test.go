package tpcc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"
	"testing"

	"silo"
	"silo/internal/core"
	"silo/internal/partition"
)

// digest hashes every row of every table in s, table by table in id order:
// the table name, then each key and value with their lengths.
func digest(t *testing.T, s *core.Store) string {
	t.Helper()
	h := sha256.New()
	var n [4]byte
	put := func(b []byte) {
		binary.BigEndian.PutUint32(n[:], uint32(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, tbl := range s.Tables() {
		put([]byte(tbl.Name))
		err := s.Worker(0).Run(func(tx *core.Tx) error {
			return tx.Scan(tbl, []byte{0}, nil, func(k, v []byte) bool {
				put(k)
				put(v)
				return true
			})
		})
		if err != nil {
			t.Fatalf("digest %s: %v", tbl.Name, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSharedLayoutPinned pins the standard layout's rows: what Load writes
// at DefaultScale(1), and what a seeded single-worker run of 2,000
// standard-mix transactions leaves. Both digests are fixed constants, so a
// change to the loader, the client's input stream or any transaction body
// that moves a single byte of a single row fails here.
func TestSharedLayoutPinned(t *testing.T) {
	const (
		wantLoad = "5912eb1f2fc6106ee0582618c23bf448297e943323df0444c972d0d6b8617564"
		wantMix  = "b92536a55ae6c6a05df44f9ee4f8fd2c971742caf4d31340044c34ce0136d1b6"
	)
	db := newTestDB(t, 1)
	s := db.Store()
	sc := DefaultScale(1)
	tables := Load(db, sc)
	if got := digest(t, s); got != wantLoad {
		t.Errorf("after Load: digest %s, want %s", got, wantLoad)
	}
	c := NewClient(tables, sc, s.Worker(0), 1, StandardConfig(), 2024)
	for i := 0; i < 2000; i++ {
		if err := c.RunMix(); err != nil && err != ErrRollback {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if got := digest(t, s); got != wantMix {
		t.Errorf("after the mix: digest %s, want %s", got, wantMix)
	}
}

type kv struct{ k, v string }

// siloRows returns the rows of table ord (a position in TableNames) across
// the handle sets, in their order.
func siloRows(t *testing.T, s *core.Store, sets []*Tables, ord int) []kv {
	t.Helper()
	var rows []kv
	for _, set := range sets {
		tbl := set.OrderCust.Entries
		if ord != ordOrderCust {
			tbl = set.base(ord)
		}
		err := s.Worker(0).Run(func(tx *core.Tx) error {
			return tx.Scan(tbl, []byte{0}, nil, func(k, v []byte) bool {
				rows = append(rows, kv{string(k), string(v)})
				return true
			})
		})
		if err != nil {
			t.Fatalf("scan %s: %v", tbl.Name, err)
		}
	}
	return rows
}

// partRows returns table tbl's rows across the partitions of ps, in
// partition order. Every key sorts at or after {0}, the smallest key the
// tree accepts.
func partRows(ps *partition.Store, tbl int) []kv {
	var rows []kv
	for p := 0; p < ps.Partitions(); p++ {
		ps.Run([]int{p}, func(tx *partition.Tx) {
			tx.Scan(p, tbl, []byte{0}, nil, func(k, v []byte) bool {
				rows = append(rows, kv{string(k), string(v)})
				return true
			})
		})
	}
	return rows
}

// TestSplitStandardMix runs the standard mix, remote stock and remote
// customers included, on MemSilo+Split's per-warehouse tables, and holds
// the result to the same consistency, index and money checks as the
// shared layout.
func TestSplitStandardMix(t *testing.T) {
	const workers = 2
	db := newTestDB(t, workers)
	s := db.Store()
	sc := tinyScale(workers)
	tb := LoadSplit(db, sc)

	// Every warehouse's rows sit in its own tables, the items in each.
	for w := 1; w <= sc.Warehouses; w++ {
		set := tb.of(w)
		if n := set.Item.Tree.Len(); n != sc.Items {
			t.Fatalf("warehouse %d: %d items, want %d", w, n, sc.Items)
		}
		for ord, name := range TableNames {
			if ord == ordItem || ord == ordCustomerName || ord == ordOrderCust {
				continue
			}
			for _, r := range siloRows(t, s, []*Tables{set}, ord) {
				if got := int(bigEndianU32([]byte(r.k))); got != w {
					t.Fatalf("%s.%d holds a row of warehouse %d", name, w, got)
				}
			}
		}
	}

	var wg sync.WaitGroup
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			cfg := StandardConfig()
			cfg.SnapshotStockLevel = true
			cfg.RemoteItemPct = 20
			c := NewClient(tb, sc, s.Worker(wid), wid+1, cfg, uint64(wid)+31)
			for i := 0; i < 300; i++ {
				if err := c.RunMix(); err != nil && err != ErrRollback {
					t.Errorf("worker %d txn %d: %v", wid, i, err)
					return
				}
			}
		}(wid)
	}
	wg.Wait()

	if err := CheckConsistency(s, tb, sc); err != nil {
		t.Fatalf("consistency: %v", err)
	}
	if err := CheckIndexes(s, tb); err != nil {
		t.Fatalf("indexes: %v", err)
	}
	if err := CheckMoney(s, tb, sc); err != nil {
		t.Fatalf("money: %v", err)
	}
}

// TestPartitionedNewOrder runs concurrent cross-partition new-orders on a
// Partitioned-Store and checks, per district, that d_next_o_id − 1 is the
// number of orders and order-cust entries, and that the orders' O_OL_CNT
// sum to the number of order lines.
func TestPartitionedNewOrder(t *testing.T) {
	sc := tinyScale(3)
	ps := LoadPartitioned(sc, sc.Warehouses)
	cfg := StandardConfig()
	cfg.RemoteItemPct = 30

	var wg sync.WaitGroup
	for wid := 0; wid < 3; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			c := NewPartClient(ps, sc, wid+1, cfg, uint64(wid)+5)
			for i := 0; i < 200; i++ {
				c.NewOrder()
			}
		}(wid)
	}
	wg.Wait()

	// Tally per (w, d), from each row key's first eight bytes.
	type wd struct{ w, d uint32 }
	at := func(k string) wd { return wd{bigEndianU32([]byte(k)), bigEndianU32([]byte(k[4:]))} }
	orders, olSum, lines, entries := map[wd]int{}, map[wd]int{}, map[wd]int{}, map[wd]int{}
	for _, r := range partRows(ps, ordOrder) {
		var o Order
		o.Unmarshal([]byte(r.v))
		orders[at(r.k)]++
		olSum[at(r.k)] += int(o.OLCount)
	}
	for _, r := range partRows(ps, ordOrderLine) {
		lines[at(r.k)]++
	}
	for _, r := range partRows(ps, ordOrderCust) {
		entries[at(r.k)]++
	}
	districts := partRows(ps, ordDistrict)
	if len(districts) != sc.Warehouses*sc.DistrictsPerWH {
		t.Fatalf("%d districts", len(districts))
	}
	placed := 0
	for _, r := range districts {
		var di District
		di.Unmarshal([]byte(r.v))
		k := at(r.k)
		if n := int(di.NextOID) - 1; n != orders[k] || n != entries[k] {
			t.Errorf("district %v: d_next_o_id-1=%d, %d orders, %d order-cust entries", k, n, orders[k], entries[k])
		}
		if olSum[k] != lines[k] {
			t.Errorf("district %v: sum(o_ol_cnt)=%d, %d order lines", k, olSum[k], lines[k])
		}
		placed += orders[k] - sc.InitOrdersPerDist
	}
	if placed == 0 {
		t.Fatal("no order placed")
	}
}

// TestPartitionedRollbackWritesNothing: a rolled-back Partitioned-Store
// new-order leaves every table of every partition as it found it.
func TestPartitionedRollbackWritesNothing(t *testing.T) {
	sc := tinyScale(2)
	ps := LoadPartitioned(sc, sc.Warehouses)
	snapshot := func() [][]kv {
		var all [][]kv
		for tbl := range TableNames {
			all = append(all, partRows(ps, tbl))
		}
		return all
	}
	before := snapshot()
	cfg := StandardConfig()
	cfg.RollbackPct = 100
	cfg.RemoteItemPct = 20
	c := NewPartClient(ps, sc, 1, cfg, 9)
	for i := 0; i < 20; i++ {
		c.NewOrder()
	}
	after := snapshot()
	for tbl, name := range TableNames {
		if !slices.Equal(before[tbl], after[tbl]) {
			t.Errorf("%s: %d rows before, %d after 20 rolled-back new-orders (or contents differ)",
				name, len(before[tbl]), len(after[tbl]))
		}
	}
}

// TestStoresRunOneNewOrder: the three stores of §5.4 — MemSilo,
// MemSilo+Split and Partitioned-Store — loaded at one scale and driven by
// one client seed, with remote supply and rollbacks, end with identical
// district, order, order-cust, new_order, order_line and stock rows.
func TestStoresRunOneNewOrder(t *testing.T) {
	sc := tinyScale(2)
	cfg := StandardConfig()
	cfg.RemoteItemPct = 15
	cfg.RollbackPct = 5
	const n, seed = 300, 77
	compared := []int{ordDistrict, ordOrder, ordOrderCust, ordNewOrder, ordOrderLine, ordStock}

	stores := map[string][][]kv{}
	for name, load := range map[string]func(*silo.DB, Scale) *Tables{"MemSilo": Load, "MemSilo+Split": LoadSplit} {
		db := newTestDB(t, 1)
		tb := load(db, sc)
		c := NewClient(tb, sc, db.Store().Worker(0), 1, cfg, seed)
		for i := 0; i < n; i++ {
			if err := c.Run(TxnNewOrder); err != nil && err != ErrRollback {
				t.Fatalf("%s: new-order %d: %v", name, i, err)
			}
		}
		if c.Stats.Rollbacks == 0 {
			t.Fatalf("%s: no rollback in %d new-orders", name, n)
		}
		for _, ord := range compared {
			stores[name] = append(stores[name], siloRows(t, db.Store(), tb.sets(), ord))
		}
	}
	ps := LoadPartitioned(sc, sc.Warehouses)
	pc := NewPartClient(ps, sc, 1, cfg, seed)
	for i := 0; i < n; i++ {
		pc.NewOrder()
	}
	for _, ord := range compared {
		stores["Partitioned-Store"] = append(stores["Partitioned-Store"], partRows(ps, ord))
	}

	want := stores["MemSilo"]
	for _, name := range []string{"MemSilo+Split", "Partitioned-Store"} {
		for i, ord := range compared {
			got := stores[name][i]
			if len(got) != len(want[i]) {
				t.Errorf("%s: %s has %d rows, MemSilo %d", name, TableNames[ord], len(got), len(want[i]))
				continue
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Errorf("%s: %s row %d is %x=%x, MemSilo's %x=%x", name, TableNames[ord], j,
						got[j].k, got[j].v, want[i][j].k, want[i][j].v)
					break
				}
			}
		}
	}
}
