package tpcc

import "silo/internal/partition"

// Partitioned-Store (§5.4) runs TPC-C partitioned by warehouse: each
// partition holds its warehouses' slice of every table, plus a replica of
// the read-only item table (as in H-Store). Figures 8 and 9 exercise 100%
// new-order; that is the only transaction implemented for this baseline,
// matching the paper's experiments. A partition's tables are numbered by
// their position in TableNames; the order-cust table holds the entries
// Silo's index subsystem would keep, and the customer-name one is unused.

// LoadPartitioned builds a Partitioned-Store of parts partitions holding
// Load's rows: each warehouse's rows in its partition (see partOf), the
// items in every partition, and an order-cust entry for every order.
func LoadPartitioned(sc Scale, parts int) *partition.Store {
	s := partition.New(parts, len(TableNames))
	var kb []byte
	var ord Order
	genRows(sc, func(tbl, wh int, key, val []byte) {
		if wh == 0 {
			for p := 0; p < parts; p++ {
				s.Load(p, tbl, key, val)
			}
			return
		}
		p := partOf(s, wh)
		s.Load(p, tbl, key, val)
		if tbl == ordOrder {
			// key is (w, d, o).
			ord.Unmarshal(val)
			kb = OrderCustKey(kb, wh, int(bigEndianU32(key[4:8])), int(ord.CID), int(bigEndianU32(key[8:12])))
			s.Load(p, ordOrderCust, kb, key)
		}
	})
	return s
}

// partOf is warehouse w's partition: warehouses are dealt round-robin over
// the store's partitions, so one partition per warehouse (Figure 8) puts
// each in its own and a single partition (Figure 9) holds them all.
func partOf(s *partition.Store, w int) int { return (w - 1) % s.Partitions() }

// PartClient issues new-order transactions against a partitioned store.
// It draws its inputs with Client's new-order draw, so a PartClient and a
// Client with the same seed place the same orders.
type PartClient struct {
	S *partition.Store
	c *Client // the input draw and key scratch; it has no tables or worker
}

// NewPartClient builds a partitioned-store client.
func NewPartClient(s *partition.Store, sc Scale, home int, cfg ClientConfig, seed uint64) *PartClient {
	return &PartClient{S: s, c: NewClient(nil, sc, nil, home, cfg, seed)}
}

// NewOrder runs one new-order transaction: acquire the partition locks of
// the home warehouse and every supplying warehouse, then execute without
// any further concurrency control. It reads and writes what Client's body
// does. There is no undo, so the items — a read-only table — are read
// first: an unused item number (the intentional rollback) is found before
// anything is written, and a rolled-back order leaves the store as it was.
func (pc *PartClient) NewOrder() {
	c := pc.c
	in := c.drawNewOrder()
	d, home := in.d, partOf(pc.S, c.Home)
	var lock [16]int
	parts := append(lock[:0], home)
	for i := 0; i < in.olCnt; i++ {
		parts = append(parts, partOf(pc.S, in.items[i].supplyW))
	}

	pc.S.Run(parts, func(tx *partition.Tx) {
		var price [15]uint64
		var item Item
		for i := 0; i < in.olCnt; i++ {
			c.kb = ItemKey(c.kb, in.items[i].id)
			var ok bool
			if c.vb, ok = tx.Get(home, ordItem, c.kb, c.vb[:0]); !ok {
				return
			}
			item.Unmarshal(c.vb)
			price[i] = item.Price
		}

		var wh Warehouse
		c.kb = WarehouseKey(c.kb, c.Home)
		c.vb, _ = tx.Get(home, ordWarehouse, c.kb, c.vb[:0])
		wh.Unmarshal(c.vb)

		var di District
		c.kb = DistrictKey(c.kb, c.Home, d)
		c.vb, _ = tx.Get(home, ordDistrict, c.kb, c.vb[:0])
		di.Unmarshal(c.vb)
		oid := int(di.NextOID)
		di.NextOID++
		c.vb = di.Marshal(c.vb)
		tx.Put(home, ordDistrict, c.kb, c.vb)

		var cu Customer
		c.kb = CustomerKey(c.kb, c.Home, d, in.cid)
		c.vb, _ = tx.Get(home, ordCustomer, c.kb, c.vb[:0])
		cu.Unmarshal(c.vb)

		ord := Order{CID: uint32(in.cid), EntryDate: in.date, OLCount: uint32(in.olCnt), AllLocal: in.allLocal}
		c.kb = OrderKey(c.kb, c.Home, d, oid)
		c.vb = ord.Marshal(c.vb)
		tx.Put(home, ordOrder, c.kb, c.vb)
		c.kb2 = OrderCustKey(c.kb2, c.Home, d, in.cid, oid)
		tx.Put(home, ordOrderCust, c.kb2, c.kb)
		c.kb = NewOrderKey(c.kb, c.Home, d, oid)
		tx.Put(home, ordNewOrder, c.kb, NewOrderVal)

		var total uint64
		for i := 0; i < in.olCnt; i++ {
			it := &in.items[i]
			var st Stock
			sp := partOf(pc.S, it.supplyW)
			c.kb = StockKey(c.kb, it.supplyW, it.id)
			c.vb, _ = tx.Get(sp, ordStock, c.kb, c.vb[:0])
			st.Unmarshal(c.vb)
			st.restock(it.qty, it.remote)
			c.vb = st.Marshal(c.vb)
			tx.Put(sp, ordStock, c.kb, c.vb)

			amount := uint64(it.qty) * price[i]
			total += amount
			line := OrderLine{
				ItemID:    uint32(it.id),
				SupplyWID: uint32(it.supplyW),
				Quantity:  uint32(it.qty),
				Amount:    amount,
			}
			line.DistInfo = st.Dist[d-1]
			c.kb = OrderLineKey(c.kb, c.Home, d, oid, i+1)
			c.vb = line.Marshal(c.vb)
			tx.Put(home, ordOrderLine, c.kb, c.vb)
		}
		_ = total * uint64(10000-cu.Discount) / 10000 * uint64(10000+wh.Tax+di.Tax) / 10000
	})
}
