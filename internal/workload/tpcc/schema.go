// Package tpcc implements the TPC-C OLTP benchmark (§5.3–§5.5, §5.7 of the
// paper): the nine-table schema plus two secondary indexes, a loader with
// standard cardinalities (scalable for laptop runs), the NURand input
// generation, all five transactions in the standard 45/43/4/4/4 mix, and
// consistency checkers. One loader and one input stream serve the three
// stores of §5.4: the Silo engine (internal/core) on shared tables or on
// tables split by warehouse, and, for the new-order transaction, the
// Partitioned-Store baseline (internal/partition).
//
// Keys are big-endian composite integers so B+-tree order matches TPC-C's
// natural clustering (warehouse, district, ...). Values use fixed-offset
// binary encodings defined here; fields not exercised by any transaction's
// logic are carried as fixed-size filler so record sizes are realistic.
package tpcc

import (
	"encoding/binary"

	"silo/internal/index"
)

// Table names, in creation order. The order is part of the on-disk log
// format contract (table IDs are assigned in creation order). The two
// secondary indexes are managed by internal/index; their entry tables
// occupy the same ordinals they always did, so log compatibility is
// preserved.
const (
	TWarehouse    = "warehouse"
	TDistrict     = "district"
	TCustomer     = "customer"
	TCustomerName = "customer_name_idx" // index on customer: (w,d,last,first) → pk
	THistory      = "history"
	TNewOrder     = "new_order"
	TOrder        = "oorder"
	TOrderCust    = "order_cust_idx" // unique index on oorder: (w,d,c,^o) → pk
	TOrderLine    = "order_line"
	TItem         = "item"
	TStock        = "stock"
)

// TableNames lists all tables in creation order.
var TableNames = []string{
	TWarehouse, TDistrict, TCustomer, TCustomerName, THistory,
	TNewOrder, TOrder, TOrderCust, TOrderLine, TItem, TStock,
}

// Positions in TableNames: the row generator's and Partitioned-Store's
// table numbers.
const (
	ordWarehouse = iota
	ordDistrict
	ordCustomer
	ordCustomerName
	ordHistory
	ordNewOrder
	ordOrder
	ordOrderCust
	ordOrderLine
	ordItem
	ordStock
)

// Scale holds the dataset cardinalities. Standard TPC-C uses 100,000 items,
// 10 districts per warehouse, 3,000 customers per district, and 3,000
// initial orders per district; Scale lets laptop runs shrink those while
// preserving every ratio the transactions depend on.
type Scale struct {
	Warehouses        int
	DistrictsPerWH    int
	CustomersPerDist  int
	Items             int
	InitOrdersPerDist int // initial orders; the last third are undelivered
}

// DefaultScale returns a laptop-friendly scale for w warehouses.
func DefaultScale(w int) Scale {
	return Scale{
		Warehouses:        w,
		DistrictsPerWH:    10,
		CustomersPerDist:  300,
		Items:             10000,
		InitOrdersPerDist: 300,
	}
}

// FullScale returns the standard TPC-C cardinalities for w warehouses.
func FullScale(w int) Scale {
	return Scale{
		Warehouses:        w,
		DistrictsPerWH:    10,
		CustomersPerDist:  3000,
		Items:             100000,
		InitOrdersPerDist: 3000,
	}
}

// ---- Key encodings ----

func u32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// WarehouseKey encodes (w).
func WarehouseKey(b []byte, w int) []byte { return u32(b[:0], uint32(w)) }

// DistrictKey encodes (w, d).
func DistrictKey(b []byte, w, d int) []byte { return u32(u32(b[:0], uint32(w)), uint32(d)) }

// CustomerKey encodes (w, d, c).
func CustomerKey(b []byte, w, d, c int) []byte {
	return u32(u32(u32(b[:0], uint32(w)), uint32(d)), uint32(c))
}

// CustomerNameKey encodes (w, d, last, first) for the customer name index.
// last and first are padded to fixed widths so ordering groups equal last
// names and orders by first name within them (TPC-C 2.6.2.2).
func CustomerNameKey(b []byte, w, d int, last, first string) []byte {
	b = u32(u32(b[:0], uint32(w)), uint32(d))
	b = appendPadded(b, last, 16)
	b = appendPadded(b, first, 16)
	return b
}

// CustomerNamePrefixLo and Hi bound the scan of all customers with a last
// name.
func CustomerNamePrefixLo(b []byte, w, d int, last string) []byte {
	b = u32(u32(b[:0], uint32(w)), uint32(d))
	return appendPadded(b, last, 16)
}

func CustomerNamePrefixHi(b []byte, w, d int, last string) []byte {
	b = CustomerNamePrefixLo(b, w, d, last)
	// The padded last-name field is followed by the first-name field; 0xFF
	// sentinel bytes bound it.
	for i := 0; i < 16; i++ {
		b = append(b, 0xFF)
	}
	return b
}

func appendPadded(b []byte, s string, n int) []byte {
	if len(s) > n {
		s = s[:n]
	}
	b = append(b, s...)
	for i := len(s); i < n; i++ {
		b = append(b, 0)
	}
	return b
}

// HistoryKey encodes (w, d, c, seq) where seq is a per-worker sequence
// making the row unique (history has no primary key in TPC-C).
func HistoryKey(b []byte, w, d, c int, seq uint32) []byte {
	return u32(u32(u32(u32(b[:0], uint32(w)), uint32(d)), uint32(c)), seq)
}

// NewOrderKey encodes (w, d, o). Ascending scans find the oldest
// undelivered order first.
func NewOrderKey(b []byte, w, d, o int) []byte {
	return u32(u32(u32(b[:0], uint32(w)), uint32(d)), uint32(o))
}

// OrderKey encodes (w, d, o).
func OrderKey(b []byte, w, d, o int) []byte {
	return u32(u32(u32(b[:0], uint32(w)), uint32(d)), uint32(o))
}

// OrderCustKey encodes (w, d, c, ^o) — the order id is bit-inverted so an
// ascending scan yields the customer's most recent order first (the paper's
// tree has forward scans; this is the standard trick in lieu of reverse
// iteration).
func OrderCustKey(b []byte, w, d, c, o int) []byte {
	return u32(u32(u32(u32(b[:0], uint32(w)), uint32(d)), uint32(c)), ^uint32(o))
}

// CustomerNameIndexSpec is the declarative key spec of the customer-name
// index: (w, d) from the primary key, then the fixed-offset Last and First
// fields of the row — byte-identical to CustomerNameKey, so the prefix
// bounds above keep working. Being a plain fixed-segment spec, this index
// could equally be created by a remote client over the wire.
func CustomerNameIndexSpec() []index.Seg {
	return []index.Seg{
		{Off: 0, Len: 8},                    // (w, d) from the customer primary key
		{FromValue: true, Off: 30, Len: 16}, // Last
		{FromValue: true, Off: 46, Len: 16}, // First
	}
}

// CustomerNameIncludeSpec is the covering projection of the customer-name
// index: the three customer fields order-status reads (clause 2.6's
// C_BALANCE, C_CREDIT, C_FIRST; last and first names already live in the
// entry key). With these riding in the entry values, the by-name
// order-status path never resolves a customer row at all.
func CustomerNameIncludeSpec() []index.Seg {
	return []index.Seg{
		{FromValue: true, Off: 0, Len: 8},   // Balance
		{FromValue: true, Off: 28, Len: 2},  // Credit
		{FromValue: true, Off: 46, Len: 16}, // First
	}
}

// CustomerNameFields is the decoded covering projection of one
// customer-name entry (the CustomerNameIncludeSpec layout).
type CustomerNameFields struct {
	Balance int64
	Credit  [2]byte
	First   [16]byte
}

// UnmarshalCustomerNameFields decodes covering fields served by a
// customer-name ScanCovering.
func UnmarshalCustomerNameFields(b []byte) CustomerNameFields {
	var f CustomerNameFields
	f.Balance = int64(binary.LittleEndian.Uint64(b[0:8]))
	copy(f.Credit[:], b[8:10])
	copy(f.First[:], b[10:26])
	return f
}

// OrderCustIndexSpec is the declarative key spec of the customer-order
// index: (w, d, c, ^o) from an order row. (w, d) and o come from the
// primary key; the customer id comes from the row, byte-reversed from the
// value encoding's little-endian to the key encoding's big-endian
// (XformReverse); the order id is bit-inverted (XformInvert) so an
// ascending scan yields the customer's most recent order first. Before
// the transform vocabulary this index needed an opaque Go KeyFunc — now
// it is wire-expressible and catalog-persistable like every other spec.
func OrderCustIndexSpec() []index.Seg {
	return []index.Seg{
		{Off: 0, Len: 8}, // (w, d) from the order primary key
		{FromValue: true, Off: 0, Len: 4, Xform: index.XformReverse}, // CID, little-endian in the row
		{Off: 8, Len: 4, Xform: index.XformInvert},                   // ^o from the primary key
	}
}

// OrderCustPrefixLo/Hi bound a customer's order index entries.
func OrderCustPrefixLo(b []byte, w, d, c int) []byte {
	return u32(u32(u32(b[:0], uint32(w)), uint32(d)), uint32(c))
}

func OrderCustPrefixHi(b []byte, w, d, c int) []byte {
	b = OrderCustPrefixLo(b, w, d, c)
	for i := 0; i < 4; i++ {
		b = append(b, 0xFF)
	}
	return b
}

// OrderLineKey encodes (w, d, o, ol).
func OrderLineKey(b []byte, w, d, o, ol int) []byte {
	return u32(u32(u32(u32(b[:0], uint32(w)), uint32(d)), uint32(o)), uint32(ol))
}

// OrderLinePrefixLo/Hi bound the order lines of orders [oLo, oHi) in one
// district.
func OrderLinePrefixLo(b []byte, w, d, oLo int) []byte {
	return u32(u32(u32(b[:0], uint32(w)), uint32(d)), uint32(oLo))
}

func OrderLinePrefixHi(b []byte, w, d, oHi int) []byte {
	return u32(u32(u32(b[:0], uint32(w)), uint32(d)), uint32(oHi))
}

// ItemKey encodes (i).
func ItemKey(b []byte, i int) []byte { return u32(b[:0], uint32(i)) }

// StockKey encodes (w, i).
func StockKey(b []byte, w, i int) []byte { return u32(u32(b[:0], uint32(w)), uint32(i)) }

// ---- Value encodings (fixed offsets, little-endian) ----

// Warehouse row: tax (basis points), YTD (cents), name+address filler.
type Warehouse struct {
	Tax  uint32
	YTD  uint64
	Name [10]byte
	_pad [64]byte
}

const warehouseSize = 4 + 8 + 10 + 64

func (w *Warehouse) Marshal(b []byte) []byte {
	b = grow(b, warehouseSize)
	binary.LittleEndian.PutUint32(b[0:], w.Tax)
	binary.LittleEndian.PutUint64(b[4:], w.YTD)
	copy(b[12:], w.Name[:])
	return b
}

func (w *Warehouse) Unmarshal(b []byte) {
	w.Tax = binary.LittleEndian.Uint32(b[0:])
	w.YTD = binary.LittleEndian.Uint64(b[4:])
	copy(w.Name[:], b[12:22])
}

// District row.
type District struct {
	Tax     uint32
	YTD     uint64
	NextOID uint32
	Name    [10]byte
	_pad    [64]byte
}

const districtSize = 4 + 8 + 4 + 10 + 64

func (d *District) Marshal(b []byte) []byte {
	b = grow(b, districtSize)
	binary.LittleEndian.PutUint32(b[0:], d.Tax)
	binary.LittleEndian.PutUint64(b[4:], d.YTD)
	binary.LittleEndian.PutUint32(b[12:], d.NextOID)
	copy(b[16:], d.Name[:])
	return b
}

func (d *District) Unmarshal(b []byte) {
	d.Tax = binary.LittleEndian.Uint32(b[0:])
	d.YTD = binary.LittleEndian.Uint64(b[4:])
	d.NextOID = binary.LittleEndian.Uint32(b[12:])
	copy(d.Name[:], b[16:26])
}

// Customer row. Balance is signed cents.
type Customer struct {
	Balance     int64
	YTDPayment  uint64
	PaymentCnt  uint32
	DeliveryCnt uint32
	Discount    uint32 // basis points
	Credit      [2]byte
	Last        [16]byte
	First       [16]byte
	Data        [200]byte
}

const customerSize = 8 + 8 + 4 + 4 + 4 + 2 + 16 + 16 + 200

func (c *Customer) Marshal(b []byte) []byte {
	b = grow(b, customerSize)
	binary.LittleEndian.PutUint64(b[0:], uint64(c.Balance))
	binary.LittleEndian.PutUint64(b[8:], c.YTDPayment)
	binary.LittleEndian.PutUint32(b[16:], c.PaymentCnt)
	binary.LittleEndian.PutUint32(b[20:], c.DeliveryCnt)
	binary.LittleEndian.PutUint32(b[24:], c.Discount)
	copy(b[28:], c.Credit[:])
	copy(b[30:], c.Last[:])
	copy(b[46:], c.First[:])
	copy(b[62:], c.Data[:])
	return b
}

func (c *Customer) Unmarshal(b []byte) {
	c.Balance = int64(binary.LittleEndian.Uint64(b[0:]))
	c.YTDPayment = binary.LittleEndian.Uint64(b[8:])
	c.PaymentCnt = binary.LittleEndian.Uint32(b[16:])
	c.DeliveryCnt = binary.LittleEndian.Uint32(b[20:])
	c.Discount = binary.LittleEndian.Uint32(b[24:])
	copy(c.Credit[:], b[28:30])
	copy(c.Last[:], b[30:46])
	copy(c.First[:], b[46:62])
	copy(c.Data[:], b[62:62+200])
}

// History row.
type History struct {
	Amount uint64
	Date   uint64
	_pad   [24]byte
}

const historySize = 8 + 8 + 24

func (h *History) Marshal(b []byte) []byte {
	b = grow(b, historySize)
	binary.LittleEndian.PutUint64(b[0:], h.Amount)
	binary.LittleEndian.PutUint64(b[8:], h.Date)
	return b
}

func (h *History) Unmarshal(b []byte) {
	h.Amount = binary.LittleEndian.Uint64(b[0:])
	h.Date = binary.LittleEndian.Uint64(b[8:])
}

// Order row.
type Order struct {
	CID       uint32
	EntryDate uint64
	CarrierID uint32 // 0 = not delivered
	OLCount   uint32
	AllLocal  uint32
}

const orderSize = 4 + 8 + 4 + 4 + 4

func (o *Order) Marshal(b []byte) []byte {
	b = grow(b, orderSize)
	binary.LittleEndian.PutUint32(b[0:], o.CID)
	binary.LittleEndian.PutUint64(b[4:], o.EntryDate)
	binary.LittleEndian.PutUint32(b[12:], o.CarrierID)
	binary.LittleEndian.PutUint32(b[16:], o.OLCount)
	binary.LittleEndian.PutUint32(b[20:], o.AllLocal)
	return b
}

func (o *Order) Unmarshal(b []byte) {
	o.CID = binary.LittleEndian.Uint32(b[0:])
	o.EntryDate = binary.LittleEndian.Uint64(b[4:])
	o.CarrierID = binary.LittleEndian.Uint32(b[12:])
	o.OLCount = binary.LittleEndian.Uint32(b[16:])
	o.AllLocal = binary.LittleEndian.Uint32(b[20:])
}

// OrderLine row.
type OrderLine struct {
	ItemID       uint32
	SupplyWID    uint32
	Quantity     uint32
	Amount       uint64 // cents
	DeliveryDate uint64 // 0 = undelivered
	DistInfo     [24]byte
}

const orderLineSize = 4 + 4 + 4 + 8 + 8 + 24

func (ol *OrderLine) Marshal(b []byte) []byte {
	b = grow(b, orderLineSize)
	binary.LittleEndian.PutUint32(b[0:], ol.ItemID)
	binary.LittleEndian.PutUint32(b[4:], ol.SupplyWID)
	binary.LittleEndian.PutUint32(b[8:], ol.Quantity)
	binary.LittleEndian.PutUint64(b[12:], ol.Amount)
	binary.LittleEndian.PutUint64(b[20:], ol.DeliveryDate)
	copy(b[28:], ol.DistInfo[:])
	return b
}

func (ol *OrderLine) Unmarshal(b []byte) {
	ol.ItemID = binary.LittleEndian.Uint32(b[0:])
	ol.SupplyWID = binary.LittleEndian.Uint32(b[4:])
	ol.Quantity = binary.LittleEndian.Uint32(b[8:])
	ol.Amount = binary.LittleEndian.Uint64(b[12:])
	ol.DeliveryDate = binary.LittleEndian.Uint64(b[20:])
	copy(ol.DistInfo[:], b[28:28+24])
}

// Item row.
type Item struct {
	Price uint64 // cents
	Name  [24]byte
	Data  [50]byte
}

const itemSize = 8 + 24 + 50

func (it *Item) Marshal(b []byte) []byte {
	b = grow(b, itemSize)
	binary.LittleEndian.PutUint64(b[0:], it.Price)
	copy(b[8:], it.Name[:])
	copy(b[32:], it.Data[:])
	return b
}

func (it *Item) Unmarshal(b []byte) {
	it.Price = binary.LittleEndian.Uint64(b[0:])
	copy(it.Name[:], b[8:32])
	copy(it.Data[:], b[32:82])
}

// Stock row.
type Stock struct {
	Quantity  int32
	YTD       uint64
	OrderCnt  uint32
	RemoteCnt uint32
	Dist      [10][24]byte
	Data      [50]byte
}

const stockSize = 4 + 8 + 4 + 4 + 240 + 50

func (s *Stock) Marshal(b []byte) []byte {
	b = grow(b, stockSize)
	binary.LittleEndian.PutUint32(b[0:], uint32(s.Quantity))
	binary.LittleEndian.PutUint64(b[4:], s.YTD)
	binary.LittleEndian.PutUint32(b[12:], s.OrderCnt)
	binary.LittleEndian.PutUint32(b[16:], s.RemoteCnt)
	off := 20
	for i := range s.Dist {
		copy(b[off:], s.Dist[i][:])
		off += 24
	}
	copy(b[off:], s.Data[:])
	return b
}

func (s *Stock) Unmarshal(b []byte) {
	s.Quantity = int32(binary.LittleEndian.Uint32(b[0:]))
	s.YTD = binary.LittleEndian.Uint64(b[4:])
	s.OrderCnt = binary.LittleEndian.Uint32(b[12:])
	s.RemoteCnt = binary.LittleEndian.Uint32(b[16:])
	off := 20
	for i := range s.Dist {
		copy(s.Dist[i][:], b[off:off+24])
		off += 24
	}
	copy(s.Data[:], b[off:off+50])
}

// NewOrderVal is the (empty) new_order row payload.
var NewOrderVal = []byte{1}

// grow returns b resized to exactly n zeroed-or-overwritten bytes.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}
