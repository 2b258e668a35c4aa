package tpcc

import (
	"fmt"

	"silo/internal/core"
	"silo/internal/index"
)

// Consistency checks from TPC-C clause 3.3.2, adapted to the fields this
// implementation carries. They run as single transactions against a
// quiesced database; any violation indicates a serializability bug in the
// engine or a logic bug in the transactions. Each walks every warehouse's
// handle set, so they check the split layout as they check the shared one.

// CheckConsistency runs all implemented consistency conditions and returns
// the first violation.
func CheckConsistency(s *core.Store, t *Tables, sc Scale) error {
	w := s.Worker(0)
	var fail error
	err := w.Run(func(tx *core.Tx) error {
		fail = nil
		for wh := 1; wh <= sc.Warehouses; wh++ {
			for d := 1; d <= sc.DistrictsPerWH; d++ {
				if err := checkDistrict(tx, t.of(wh), wh, d); err != nil {
					fail = err
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return fail
}

func checkDistrict(tx *core.Tx, t *Tables, wh, d int) error {
	var kb, kb2 []byte

	// District next order id.
	var di District
	kb = DistrictKey(kb, wh, d)
	v, err := tx.Get(t.District, kb)
	if err != nil {
		return fmt.Errorf("district (%d,%d): %w", wh, d, err)
	}
	di.Unmarshal(v)
	nextOID := int(di.NextOID)

	// Consistency 3.3.2.2: d_next_o_id − 1 = max(o_id) = max(no_o_id).
	maxO := 0
	nOrders := 0
	kb = OrderKey(kb, wh, d, 0)
	kb2 = OrderKey(kb2, wh, d+1, 0)
	if err := tx.Scan(t.Order, kb, kb2, func(k, _ []byte) bool {
		maxO = int(bigEndianU32(k[8:12]))
		nOrders++
		return true
	}); err != nil {
		return err
	}
	if maxO != nextOID-1 {
		return fmt.Errorf("(%d,%d): max(o_id)=%d but d_next_o_id-1=%d", wh, d, maxO, nextOID-1)
	}

	// Consistency 3.3.2.3 (adapted): new_order ids are a contiguous-set
	// upper segment: max(no_o_id) = d_next_o_id − 1 when any exist, and
	// count = max − min + 1 (deliveries remove from the bottom).
	minNO, maxNO, nNO := 0, 0, 0
	kb = NewOrderKey(kb, wh, d, 0)
	kb2 = NewOrderKey(kb2, wh, d+1, 0)
	if err := tx.Scan(t.NewOrder, kb, kb2, func(k, _ []byte) bool {
		o := int(bigEndianU32(k[8:12]))
		if nNO == 0 {
			minNO = o
		}
		maxNO = o
		nNO++
		return true
	}); err != nil {
		return err
	}
	if nNO > 0 {
		if maxNO != nextOID-1 {
			return fmt.Errorf("(%d,%d): max(no_o_id)=%d want %d", wh, d, maxNO, nextOID-1)
		}
		if nNO != maxNO-minNO+1 {
			return fmt.Errorf("(%d,%d): new_order ids not contiguous: n=%d min=%d max=%d", wh, d, nNO, minNO, maxNO)
		}
	}

	// Consistency 3.3.2.4: sum(o_ol_cnt) = number of order_line rows.
	var sumOL uint64
	kb = OrderKey(kb, wh, d, 0)
	kb2 = OrderKey(kb2, wh, d+1, 0)
	var ord Order
	type orderInfo struct {
		id    int
		olCnt int
		deliv bool
	}
	var orders []orderInfo
	if err := tx.Scan(t.Order, kb, kb2, func(k, v []byte) bool {
		ord.Unmarshal(v)
		sumOL += uint64(ord.OLCount)
		orders = append(orders, orderInfo{
			id:    int(bigEndianU32(k[8:12])),
			olCnt: int(ord.OLCount),
			deliv: ord.CarrierID != 0,
		})
		return true
	}); err != nil {
		return err
	}
	nLines := 0
	kb = OrderLinePrefixLo(kb, wh, d, 0)
	kb2 = OrderLinePrefixLo(kb2, wh, d+1, 0)
	var line OrderLine
	undeliveredLines := map[int]int{}
	if err := tx.Scan(t.OrderLine, kb, kb2, func(k, v []byte) bool {
		nLines++
		line.Unmarshal(v)
		if line.DeliveryDate == 0 {
			undeliveredLines[int(bigEndianU32(k[8:12]))]++
		}
		return true
	}); err != nil {
		return err
	}
	if uint64(nLines) != sumOL {
		return fmt.Errorf("(%d,%d): order_line rows=%d but sum(o_ol_cnt)=%d", wh, d, nLines, sumOL)
	}

	// Consistency 3.3.2.6/7 (adapted): an order has a carrier iff it is not
	// in new_order; its lines have delivery dates iff delivered.
	noSet := map[int]bool{}
	kb = NewOrderKey(kb, wh, d, 0)
	kb2 = NewOrderKey(kb2, wh, d+1, 0)
	if err := tx.Scan(t.NewOrder, kb, kb2, func(k, _ []byte) bool {
		noSet[int(bigEndianU32(k[8:12]))] = true
		return true
	}); err != nil {
		return err
	}
	for _, o := range orders {
		if o.deliv && noSet[o.id] {
			return fmt.Errorf("(%d,%d): order %d delivered but still in new_order", wh, d, o.id)
		}
		if !o.deliv && !noSet[o.id] {
			return fmt.Errorf("(%d,%d): order %d undelivered but missing from new_order", wh, d, o.id)
		}
		if o.deliv && undeliveredLines[o.id] > 0 {
			return fmt.Errorf("(%d,%d): delivered order %d has %d lines without delivery date", wh, d, o.id, undeliveredLines[o.id])
		}
		if !o.deliv && undeliveredLines[o.id] != o.olCnt {
			return fmt.Errorf("(%d,%d): undelivered order %d has %d/%d undelivered lines", wh, d, o.id, undeliveredLines[o.id], o.olCnt)
		}
	}
	return nil
}

// CheckIndexes verifies that the two secondary indexes exactly cover their
// tables: every entry resolves to a row whose recomputed secondary key
// matches, covering entries carry exactly the included fields recomputed
// from their row, and entry counts equal row counts (so no row is missing
// an entry and no entry is stale). Bespoke maintenance is gone — this is
// the subsystem's contract, checked end to end.
func CheckIndexes(s *core.Store, t *Tables) error {
	w := s.Worker(0)
	var fail error
	err := w.Run(func(tx *core.Tx) error {
		fail = nil
		var ixs []*index.Index
		for _, set := range t.sets() {
			ixs = append(ixs, set.CustomerName, set.OrderCust)
		}
		for _, ix := range ixs {
			rows := 0
			if err := tx.Scan(ix.On, []byte{0}, nil, func(_, _ []byte) bool {
				rows++
				return true
			}); err != nil {
				return err
			}
			entries := 0
			var skb []byte
			var mismatch error
			if err := index.Scan(tx, ix, []byte{0}, nil, 0, func(sk, pk, val []byte) bool {
				entries++
				want, ok := ix.Key(skb[:0], pk, val)
				skb = want
				if !ok || string(want) != string(sk) {
					mismatch = fmt.Errorf("index %s: entry %x does not match row %x (want key %x)",
						ix.Name, sk, pk, want)
					return false
				}
				return true
			}); err != nil {
				return err
			}
			if mismatch != nil {
				fail = mismatch
				return nil
			}
			if entries != rows {
				fail = fmt.Errorf("index %s: %d entries for %d rows", ix.Name, entries, rows)
				return nil
			}
			// The freshness half of the covering contract: included
			// fields re-derived from rows inside this same transaction
			// (ErrConflict passes through for the retry loop).
			if err := index.VerifyCoveringFresh(tx, ix, []byte{0}, nil); err != nil {
				if err == core.ErrConflict {
					return err
				}
				fail = err
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return fail
}

// CheckMoney verifies warehouse/district YTD accumulation against history:
// w_ytd = initial + sum of history amounts paid at that warehouse
// (consistency 3.3.2.1 adapted to our history keying, which records the
// customer's home rather than the paying warehouse; so the check sums
// per-warehouse district YTD only).
func CheckMoney(s *core.Store, t *Tables, sc Scale) error {
	w := s.Worker(0)
	var fail error
	err := w.Run(func(tx *core.Tx) error {
		fail = nil
		var kb, kb2 []byte
		for wh := 1; wh <= sc.Warehouses; wh++ {
			t := t.of(wh)
			var wr Warehouse
			kb = WarehouseKey(kb, wh)
			v, err := tx.Get(t.Warehouse, kb)
			if err != nil {
				return err
			}
			wr.Unmarshal(v)
			var sumD uint64
			kb = DistrictKey(kb, wh, 0)
			kb2 = DistrictKey(kb2, wh+1, 0)
			var di District
			if err := tx.Scan(t.District, kb, kb2, func(_, v []byte) bool {
				di.Unmarshal(v)
				sumD += di.YTD
				return true
			}); err != nil {
				return err
			}
			// 3.3.2.1: w_ytd = sum(d_ytd).
			base := uint64(30000000) - uint64(3000000)*uint64(sc.DistrictsPerWH)
			if wr.YTD != sumD+base {
				fail = fmt.Errorf("warehouse %d: w_ytd=%d, sum(d_ytd)+base=%d", wh, wr.YTD, sumD+base)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return fail
}
