package tpcc

import (
	"errors"
	"fmt"

	"silo/internal/core"
	"silo/internal/index"
)

// ErrRollback is the intentional user abort that TPC-C injects into 1% of
// new-order transactions (an unused item number, clause 2.4.1.4).
var ErrRollback = errors.New("tpcc: simulated user rollback")

// TxnType enumerates the five TPC-C transactions.
type TxnType int

const (
	TxnNewOrder TxnType = iota
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
	numTxnTypes
)

// String names the transaction type.
func (t TxnType) String() string {
	switch t {
	case TxnNewOrder:
		return "new_order"
	case TxnPayment:
		return "payment"
	case TxnOrderStatus:
		return "order_status"
	case TxnDelivery:
		return "delivery"
	case TxnStockLevel:
		return "stock_level"
	}
	return fmt.Sprintf("txn(%d)", int(t))
}

// ClientConfig tunes a client's behaviour.
type ClientConfig struct {
	// RemoteItemPct is the probability (percent) that any single new-order
	// item is supplied by a remote warehouse. The standard uses 1; Figure 8
	// sweeps it.
	RemoteItemPct int
	// RemotePaymentPct is the probability a payment's customer belongs to a
	// remote warehouse (standard: 15).
	RemotePaymentPct int
	// RollbackPct is the percentage of new-order transactions that roll
	// back intentionally (standard: 1).
	RollbackPct int
	// FastIDs generates new-order ids in a separate small transaction
	// before the body (the Figure 9 MemSilo+FastIds variant; sacrifices
	// contiguous id allocation since ids do not roll back on abort).
	FastIDs bool
	// SnapshotStockLevel runs stock-level as a snapshot transaction
	// (Figure 10's MemSilo configuration; disable for MemSilo+NoSS).
	SnapshotStockLevel bool
}

// StandardConfig is the standard-compliant client configuration.
func StandardConfig() ClientConfig {
	return ClientConfig{RemoteItemPct: 1, RemotePaymentPct: 15, RollbackPct: 1}
}

// ClientStats counts per-transaction-type outcomes.
type ClientStats struct {
	Commits   [numTxnTypes]uint64
	Conflicts [numTxnTypes]uint64
	Rollbacks uint64
}

// Total returns total commits.
func (cs *ClientStats) Total() uint64 {
	var n uint64
	for _, c := range cs.Commits {
		n += c
	}
	return n
}

// Client issues TPC-C transactions from one worker against one home
// warehouse. Following the paper (§5.3), all clients with the same home
// warehouse run on the same worker; the client embeds its workload
// generator, mirroring the paper's combined worker/generator threads. It
// reaches warehouse w's rows through T.of(w), so it runs unchanged on
// Load's shared tables and on LoadSplit's per-warehouse ones.
type Client struct {
	T     *Tables
	SC    Scale
	W     *core.Worker
	Cfg   ClientConfig
	Home  int // 1-based home warehouse
	Stats ClientStats

	rng  *RNG
	hseq uint32
	kb   []byte // key scratch
	kb2  []byte
	vb   []byte  // value scratch
	upds []olUpd // Delivery's order-line updates for one district
	date uint64
}

// olUpd is one order line a Delivery restamps: its number and new row.
type olUpd struct {
	ol   int
	line OrderLine
}

// NewClient builds a client bound to worker w and home warehouse home.
func NewClient(t *Tables, sc Scale, w *core.Worker, home int, cfg ClientConfig, seed uint64) *Client {
	return &Client{T: t, SC: sc, W: w, Cfg: cfg, Home: home, rng: NewRNG(seed)}
}

// RNG exposes the client's generator (tests).
func (c *Client) RNG() *RNG { return c.rng }

// NextType draws from the standard mix: 45% new-order, 43% payment, 4%
// order-status, 4% delivery, 4% stock-level.
func (c *Client) NextType() TxnType {
	x := c.rng.Intn(100)
	switch {
	case x < 45:
		return TxnNewOrder
	case x < 88:
		return TxnPayment
	case x < 92:
		return TxnOrderStatus
	case x < 96:
		return TxnDelivery
	default:
		return TxnStockLevel
	}
}

// Run executes one transaction of the given type, retrying conflicts until
// it commits (or rolls back by design). It returns the type's outcome
// error: nil or ErrRollback.
func (c *Client) Run(tt TxnType) error {
	for {
		err := c.RunOnce(tt)
		if err == core.ErrConflict {
			continue
		}
		return err
	}
}

// RunOnce executes one attempt without retry; core.ErrConflict reports an
// abort.
func (c *Client) RunOnce(tt TxnType) error {
	var err error
	switch tt {
	case TxnNewOrder:
		err = c.NewOrder()
	case TxnPayment:
		err = c.Payment()
	case TxnOrderStatus:
		err = c.OrderStatus()
	case TxnDelivery:
		err = c.Delivery()
	case TxnStockLevel:
		err = c.StockLevel()
	}
	switch err {
	case nil:
		c.Stats.Commits[tt]++
	case core.ErrConflict:
		c.Stats.Conflicts[tt]++
	case ErrRollback:
		c.Stats.Rollbacks++
	}
	return err
}

// RunMix executes one transaction drawn from the standard mix, with
// retries.
func (c *Client) RunMix() error { return c.Run(c.NextType()) }

// ---- New-Order (clause 2.4) ----

type noItem struct {
	id      int
	supplyW int
	qty     int
	remote  bool
}

// newOrderIn is one new-order's input (clause 2.4.1).
type newOrderIn struct {
	d, cid, olCnt int
	allLocal      uint32
	date          uint64
	items         [15]noItem
}

// drawNewOrder draws the next new-order's input from the client's stream.
// Every store's new-order draws here, so one seed gives one sequence of
// orders on all of them.
func (c *Client) drawNewOrder() (in newOrderIn) {
	in.d = rnd(c.rng, 1, c.SC.DistrictsPerWH)
	in.cid = CustomerID(c.rng, c.SC.CustomersPerDist)
	in.olCnt = rnd(c.rng, 5, 15)
	rollback := c.Cfg.RollbackPct > 0 && c.rng.Intn(100) < c.Cfg.RollbackPct

	in.allLocal = 1
	for i := 0; i < in.olCnt; i++ {
		it := &in.items[i]
		it.id = ItemID(c.rng, c.SC.Items)
		it.supplyW = c.Home
		it.qty = rnd(c.rng, 1, 10)
		if c.SC.Warehouses > 1 && c.rng.Intn(100) < c.Cfg.RemoteItemPct {
			it.supplyW = c.otherWarehouse()
			it.remote = true
			in.allLocal = 0
		}
	}
	if rollback {
		in.items[in.olCnt-1].id = c.SC.Items + 1 // unused item number
	}
	c.date++
	in.date = c.date
	return in
}

// restock is the stock row after an order line takes qty of it.
func (st *Stock) restock(qty int, remote bool) {
	if st.Quantity >= int32(qty)+10 {
		st.Quantity -= int32(qty)
	} else {
		st.Quantity = st.Quantity - int32(qty) + 91
	}
	st.YTD += uint64(qty)
	st.OrderCnt++
	if remote {
		st.RemoteCnt++
	}
}

// NewOrder runs one new-order transaction. With FastIDs configured, the
// order id (and cached district tax) comes from a preliminary small
// transaction so the body never touches the hot d_next_o_id counter.
func (c *Client) NewOrder() error {
	in := c.drawNewOrder()
	d := in.d

	var oid int
	var dTax uint32
	if c.Cfg.FastIDs {
		// Preliminary id-allocation transaction (its counter bump does not
		// roll back with the body, by design).
		err := c.W.Run(func(tx *core.Tx) error {
			t := c.T.of(c.Home)
			var di District
			c.kb = DistrictKey(c.kb, c.Home, d)
			v, err := tx.Get(t.District, c.kb)
			if err != nil {
				return err
			}
			di.Unmarshal(v)
			oid = int(di.NextOID)
			dTax = di.Tax
			di.NextOID++
			c.vb = di.Marshal(c.vb)
			return tx.Put(t.District, c.kb, c.vb)
		})
		if err != nil {
			return err
		}
	}

	return c.W.RunOnce(func(tx *core.Tx) error {
		t := c.T.of(c.Home)
		// Warehouse tax.
		var wh Warehouse
		c.kb = WarehouseKey(c.kb, c.Home)
		v, err := tx.Get(t.Warehouse, c.kb)
		if err != nil {
			return err
		}
		wh.Unmarshal(v)

		if !c.Cfg.FastIDs {
			var di District
			c.kb = DistrictKey(c.kb, c.Home, d)
			v, err := tx.Get(t.District, c.kb)
			if err != nil {
				return err
			}
			di.Unmarshal(v)
			oid = int(di.NextOID)
			dTax = di.Tax
			di.NextOID++
			c.vb = di.Marshal(c.vb)
			if err := tx.Put(t.District, c.kb, c.vb); err != nil {
				return err
			}
		}

		// Customer discount.
		var cu Customer
		c.kb = CustomerKey(c.kb, c.Home, d, in.cid)
		v, err = tx.Get(t.Customer, c.kb)
		if err != nil {
			return err
		}
		cu.Unmarshal(v)

		// Order and new-order; the customer-order index entry is added by
		// the index subsystem inside this same transaction.
		ord := Order{CID: uint32(in.cid), EntryDate: in.date, OLCount: uint32(in.olCnt), AllLocal: in.allLocal}
		c.kb = OrderKey(c.kb, c.Home, d, oid)
		c.vb = ord.Marshal(c.vb)
		if err := tx.Insert(t.Order, c.kb, c.vb); err != nil {
			return err
		}
		c.kb = NewOrderKey(c.kb, c.Home, d, oid)
		if err := tx.Insert(t.NewOrder, c.kb, NewOrderVal); err != nil {
			return err
		}

		var total uint64
		for i := 0; i < in.olCnt; i++ {
			it := &in.items[i]
			// Item price; the unused item number triggers the intentional
			// rollback.
			var item Item
			c.kb = ItemKey(c.kb, it.id)
			v, err := tx.Get(t.Item, c.kb)
			if err == core.ErrNotFound {
				return ErrRollback
			}
			if err != nil {
				return err
			}
			item.Unmarshal(v)

			// Stock update, in the supplying warehouse's set.
			var st Stock
			stock := c.T.of(it.supplyW).Stock
			c.kb = StockKey(c.kb, it.supplyW, it.id)
			v, err = tx.Get(stock, c.kb)
			if err != nil {
				return err
			}
			st.Unmarshal(v)
			st.restock(it.qty, it.remote)
			c.vb = st.Marshal(c.vb)
			if err := tx.Put(stock, c.kb, c.vb); err != nil {
				return err
			}

			amount := uint64(it.qty) * item.Price
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
			if err := tx.Insert(t.OrderLine, c.kb, c.vb); err != nil {
				return err
			}
		}
		// total * (1 − discount) * (1 + wTax + dTax) — computed for
		// realism; the value is returned to the "client".
		_ = total * uint64(10000-cu.Discount) / 10000 * uint64(10000+wh.Tax+dTax) / 10000
		return nil
	})
}

func (c *Client) otherWarehouse() int {
	for {
		w := rnd(c.rng, 1, c.SC.Warehouses)
		if w != c.Home || c.SC.Warehouses == 1 {
			return w
		}
	}
}

// ---- Payment (clause 2.5) ----

// Payment runs one payment transaction.
func (c *Client) Payment() error {
	d := rnd(c.rng, 1, c.SC.DistrictsPerWH)
	amount := uint64(rnd(c.rng, 100, 500000))
	cw, cd := c.Home, d
	if c.SC.Warehouses > 1 && c.rng.Intn(100) < c.Cfg.RemotePaymentPct {
		cw = c.otherWarehouse()
		cd = rnd(c.rng, 1, c.SC.DistrictsPerWH)
	}
	byName := c.rng.Intn(100) < 60
	var last string
	cid := 0
	if byName {
		last = RandomLastNameRun(c.rng, c.SC.CustomersPerDist)
	} else {
		cid = CustomerID(c.rng, c.SC.CustomersPerDist)
	}
	c.date++
	c.hseq++
	seq := c.hseq

	return c.W.RunOnce(func(tx *core.Tx) error {
		t, ct := c.T.of(c.Home), c.T.of(cw)
		var wh Warehouse
		c.kb = WarehouseKey(c.kb, c.Home)
		v, err := tx.Get(t.Warehouse, c.kb)
		if err != nil {
			return err
		}
		wh.Unmarshal(v)
		wh.YTD += amount
		c.vb = wh.Marshal(c.vb)
		if err := tx.Put(t.Warehouse, c.kb, c.vb); err != nil {
			return err
		}

		var di District
		c.kb = DistrictKey(c.kb, c.Home, d)
		v, err = tx.Get(t.District, c.kb)
		if err != nil {
			return err
		}
		di.Unmarshal(v)
		di.YTD += amount
		c.vb = di.Marshal(c.vb)
		if err := tx.Put(t.District, c.kb, c.vb); err != nil {
			return err
		}

		id := cid
		if byName {
			id, err = c.lookupByName(tx, cw, cd, last)
			if err != nil {
				return err
			}
		}

		// The customer and their history row live in the customer's
		// warehouse.
		var cu Customer
		c.kb = CustomerKey(c.kb, cw, cd, id)
		v, err = tx.Get(ct.Customer, c.kb)
		if err != nil {
			return err
		}
		cu.Unmarshal(v)
		cu.Balance -= int64(amount)
		cu.YTDPayment += amount
		cu.PaymentCnt++
		if cu.Credit[0] == 'B' && cu.Credit[1] == 'C' {
			// Bad credit: fold payment details into C_DATA (truncated to
			// the field, per 2.5.2.2).
			info := fmt.Sprintf("%d %d %d %d %d %d|", id, cd, cw, d, c.Home, amount)
			var nd [200]byte
			n := copy(nd[:], info)
			copy(nd[n:], cu.Data[:200-n])
			cu.Data = nd
		}
		c.vb = cu.Marshal(c.vb)
		if err := tx.Put(ct.Customer, c.kb, c.vb); err != nil {
			return err
		}

		h := History{Amount: amount, Date: c.date}
		c.kb = HistoryKey(c.kb, cw, cd, id, seq<<8|uint32(c.W.ID()))
		c.vb = h.Marshal(c.vb)
		return tx.Insert(ct.History, c.kb, c.vb)
	})
}

// lookupByName resolves a customer by last name via the customer-name
// index: all matching customers sorted by first name; pick the one at
// position ⌈n/2⌉ (clause 2.5.2.2). The entries-only scan is enough — the
// caller reads the one chosen customer row itself.
func (c *Client) lookupByName(tx *core.Tx, w, d int, last string) (int, error) {
	var ids []int
	c.kb = CustomerNamePrefixLo(c.kb, w, d, last)
	c.kb2 = CustomerNamePrefixHi(c.kb2, w, d, last)
	err := index.ScanEntries(tx, c.T.of(w).CustomerName, c.kb, c.kb2, func(_, pk []byte) bool {
		// The entry value is the customer primary key (w,d,c).
		ids = append(ids, int(bigEndianU32(pk[8:12])))
		return true
	})
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, core.ErrNotFound
	}
	return ids[(len(ids)+1)/2-1], nil
}

func bigEndianU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// ---- Order-Status (clause 2.6) ----

// lookupByNameCovering resolves the clause-2.6 by-name path entirely from
// the covering customer-name index: all matching customers, already
// sorted by first name in the entry keys, with C_BALANCE/C_CREDIT/C_FIRST
// served from each entry's included fields; pick the one at position
// ⌈n/2⌉. No customer row is resolved — the primary tree is never touched.
func (c *Client) lookupByNameCovering(tx *core.Tx, w, d int, last string) (int, CustomerNameFields, error) {
	var ids []int
	var fbuf []byte
	names := c.T.of(w).CustomerName
	c.kb = CustomerNamePrefixLo(c.kb, w, d, last)
	c.kb2 = CustomerNamePrefixHi(c.kb2, w, d, last)
	err := index.ScanCovering(tx, names, c.kb, c.kb2, 0, func(_, pk, fields []byte) bool {
		ids = append(ids, int(bigEndianU32(pk[8:12])))
		fbuf = append(fbuf, fields...)
		return true
	})
	if err != nil {
		return 0, CustomerNameFields{}, err
	}
	if len(ids) == 0 {
		return 0, CustomerNameFields{}, core.ErrNotFound
	}
	mid := (len(ids)+1)/2 - 1
	fw := names.IncludeWidth()
	return ids[mid], UnmarshalCustomerNameFields(fbuf[mid*fw : (mid+1)*fw]), nil
}

// OrderStatus reads a customer's balance and their most recent order with
// its lines. The by-name variant serves the customer fields straight from
// the covering name index; only the by-id variant reads the customer row.
func (c *Client) OrderStatus() error {
	d := rnd(c.rng, 1, c.SC.DistrictsPerWH)
	byName := c.rng.Intn(100) < 60
	var last string
	cid := 0
	if byName {
		last = RandomLastNameRun(c.rng, c.SC.CustomersPerDist)
	} else {
		cid = CustomerID(c.rng, c.SC.CustomersPerDist)
	}

	return c.W.RunOnce(func(tx *core.Tx) error {
		t := c.T.of(c.Home)
		id := cid
		var balance int64
		if byName {
			var f CustomerNameFields
			var err error
			id, f, err = c.lookupByNameCovering(tx, c.Home, d, last)
			if err != nil {
				return err
			}
			balance = f.Balance
		} else {
			var cu Customer
			c.kb = CustomerKey(c.kb, c.Home, d, id)
			v, err := tx.Get(t.Customer, c.kb)
			if err != nil {
				return err
			}
			cu.Unmarshal(v)
			balance = cu.Balance
		}
		_ = balance // returned to the "client"

		// Most recent order: first entry of the reversed-id index, resolved
		// straight to the order row by the index scan.
		oid := -1
		var ord Order
		c.kb = OrderCustPrefixLo(c.kb, c.Home, d, id)
		c.kb2 = OrderCustPrefixHi(c.kb2, c.Home, d, id)
		err := index.Scan(tx, t.OrderCust, c.kb, c.kb2, 1, func(_, pk, v []byte) bool {
			oid = int(bigEndianU32(pk[8:12]))
			ord.Unmarshal(v)
			return false
		})
		if err != nil {
			return err
		}
		if oid < 0 {
			return nil // customer has no orders at this scale
		}

		var line OrderLine
		c.kb = OrderLinePrefixLo(c.kb, c.Home, d, oid)
		c.kb2 = OrderLinePrefixHi(c.kb2, c.Home, d, oid+1)
		return tx.Scan(t.OrderLine, c.kb, c.kb2, func(_, v []byte) bool {
			line.Unmarshal(v)
			return true
		})
	})
}

// ---- Delivery (clause 2.7) ----

// Delivery delivers the oldest undelivered order of every district in the
// home warehouse as one transaction.
func (c *Client) Delivery() error {
	carrier := uint32(rnd(c.rng, 1, 10))
	c.date++
	date := c.date

	return c.W.RunOnce(func(tx *core.Tx) error {
		t := c.T.of(c.Home)
		for d := 1; d <= c.SC.DistrictsPerWH; d++ {
			// Oldest new-order entry.
			oid := -1
			c.kb = NewOrderKey(c.kb, c.Home, d, 0)
			c.kb2 = NewOrderKey(c.kb2, c.Home, d+1, 0)
			err := tx.Scan(t.NewOrder, c.kb, c.kb2, func(k, _ []byte) bool {
				oid = int(bigEndianU32(k[8:12]))
				return false
			})
			if err != nil {
				return err
			}
			if oid < 0 {
				continue // district fully delivered (allowed: 2.7.4.2)
			}
			c.kb = NewOrderKey(c.kb, c.Home, d, oid)
			if err := tx.Delete(t.NewOrder, c.kb); err != nil {
				return err
			}

			var ord Order
			c.kb = OrderKey(c.kb, c.Home, d, oid)
			v, err := tx.Get(t.Order, c.kb)
			if err != nil {
				return err
			}
			ord.Unmarshal(v)
			ord.CarrierID = carrier
			c.vb = ord.Marshal(c.vb)
			if err := tx.Put(t.Order, c.kb, c.vb); err != nil {
				return err
			}

			// Order lines: stamp delivery date, sum amounts.
			var sum uint64
			upds := c.upds[:0]
			c.kb = OrderLinePrefixLo(c.kb, c.Home, d, oid)
			c.kb2 = OrderLinePrefixHi(c.kb2, c.Home, d, oid+1)
			err = tx.Scan(t.OrderLine, c.kb, c.kb2, func(k, v []byte) bool {
				var line OrderLine
				line.Unmarshal(v)
				sum += line.Amount
				line.DeliveryDate = date
				upds = append(upds, olUpd{ol: int(bigEndianU32(k[12:16])), line: line})
				return true
			})
			c.upds = upds
			if err != nil {
				return err
			}
			for i := range upds {
				c.kb = OrderLineKey(c.kb, c.Home, d, oid, upds[i].ol)
				c.vb = upds[i].line.Marshal(c.vb)
				if err := tx.Put(t.OrderLine, c.kb, c.vb); err != nil {
					return err
				}
			}

			var cu Customer
			c.kb = CustomerKey(c.kb, c.Home, d, int(ord.CID))
			v, err = tx.Get(t.Customer, c.kb)
			if err != nil {
				return err
			}
			cu.Unmarshal(v)
			cu.Balance += int64(sum)
			cu.DeliveryCnt++
			c.vb = cu.Marshal(c.vb)
			if err := tx.Put(t.Customer, c.kb, c.vb); err != nil {
				return err
			}
		}
		return nil
	})
}

// ---- Stock-Level (clause 2.8) ----

// StockLevel counts distinct items from the district's last 20 orders whose
// stock is below a threshold. Per Figure 10's MemSilo configuration it runs
// as a snapshot transaction (roughly one second in the past, never
// aborting); with SnapshotStockLevel disabled it runs as a regular
// transaction in the present (MemSilo+NoSS).
func (c *Client) StockLevel() error {
	d := rnd(c.rng, 1, c.SC.DistrictsPerWH)
	threshold := int32(rnd(c.rng, 10, 20))

	if c.Cfg.SnapshotStockLevel {
		return c.W.RunSnapshot(func(stx *core.SnapTx) error {
			return c.stockLevelBody(stx, d, threshold)
		})
	}
	return c.W.RunOnce(func(tx *core.Tx) error {
		return c.stockLevelBody(tx, d, threshold)
	})
}

func (c *Client) stockLevelBody(r core.Reader, d int, threshold int32) error {
	t := c.T.of(c.Home)
	var di District
	var err error
	c.kb = DistrictKey(c.kb, c.Home, d)
	c.vb, err = r.GetAppend(t.District, c.kb, c.vb[:0])
	if err == core.ErrNotFound {
		// A snapshot taken before the initial load sees an empty database;
		// the query legitimately reports no stock below threshold.
		return nil
	}
	if err != nil {
		return err
	}
	di.Unmarshal(c.vb)
	next := int(di.NextOID)
	lo := next - 20
	if lo < 1 {
		lo = 1
	}

	// Distinct items in the last 20 orders' lines (nested-loop join of
	// order_line with stock, as the paper describes).
	seen := make(map[uint32]struct{}, 200)
	c.kb = OrderLinePrefixLo(c.kb, c.Home, d, lo)
	c.kb2 = OrderLinePrefixHi(c.kb2, c.Home, d, next)
	var line OrderLine
	if err := r.Scan(t.OrderLine, c.kb, c.kb2, func(_, v []byte) bool {
		line.Unmarshal(v)
		seen[line.ItemID] = struct{}{}
		return true
	}); err != nil {
		return err
	}

	low := 0
	var st Stock
	for id := range seen {
		c.kb = StockKey(c.kb, c.Home, int(id))
		c.vb, err = r.GetAppend(t.Stock, c.kb, c.vb[:0])
		if err == core.ErrNotFound {
			continue
		}
		if err != nil {
			return err
		}
		st.Unmarshal(c.vb)
		if st.Quantity < threshold {
			low++
		}
	}
	_ = low
	return nil
}
