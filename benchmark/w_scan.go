package main

import (
	"bytes"
	"fmt"
	"time"

	"silo"
	"silo/internal/workload/ycsb"
	"silo/server"
	"silo/wire"
)

type scanWireParams struct {
	Keys      int    `json:"initial_keys"`
	ValueSize int    `json:"value_bytes"`
	ScanPct   int    `json:"scan_pct"`
	ScanLen   int    `json:"scan_rows"`
	Window    int    `json:"window_per_conn"`
	Index     string `json:"index"`
	Durable   bool   `json:"durable"`
}

// scanIndex is the secondary index silo-loadgen -index builds: on the
// big-endian counter in the first 8 bytes of every row. It is not unique,
// so entry keys are counter ‖ primary key.
const scanIndex = "usertable_by_ctr"

func scanWireSizing(smoke bool) scanWireParams {
	p := scanWireParams{Keys: 200_000, ValueSize: 100, ScanPct: 90, ScanLen: 100, Window: 4, Index: scanIndex + " on row[0:8]"}
	if smoke {
		p.Keys = 3000
	}
	return p
}

const (
	kindScan = iota
	kindInsert
)

// scanOps is one caller's op stream: scans from a uniform start among the
// loaded keys, and inserts of keys no one else ever writes (above the
// loaded range, striped over the callers), so no request can fail.
type scanOps struct {
	rng      *ycsb.RNG
	p        scanWireParams
	caller   int
	callers  int
	inserted int
}

type scanOp struct {
	scan bool
	key  uint64
}

func (o *scanOps) next() scanOp {
	if o.rng.Intn(100) < o.p.ScanPct {
		return scanOp{scan: true, key: uint64(o.rng.Intn(o.p.Keys))}
	}
	key := uint64(o.p.Keys + o.caller + o.inserted*o.callers)
	o.inserted++
	return scanOp{key: key}
}

func newScanOps(p scanWireParams, seed uint64, caller, callers int) *scanOps {
	return &scanOps{rng: ycsb.NewRNG(callerSeed(seed, caller)), p: p, caller: caller, callers: callers}
}

// entryLo is the index-entry lower bound of a scan starting at key: every
// counter is zero in this workload, so 0 ‖ key begins the scan at that
// row's entry and scan ranges spread over the whole index.
func entryLo(dst []byte, key uint64) []byte {
	return ycsb.AppendKey(key, append(dst[:0], 0, 0, 0, 0, 0, 0, 0, 0))
}

func runScanWire(r *run) error {
	p := scanWireSizing(r.cfg.smoke)
	r.params = p
	segs := []silo.IndexSeg{{FromValue: true, Off: 0, Len: 8}}

	env, err := setupMedian(r, func() (*wireEnv, error) {
		db, err := silo.Open(silo.Options{Workers: r.procs})
		if err != nil {
			return nil, err
		}
		tbl := db.CreateTable(ycsb.TableName)
		if err := loadTable(db, tbl, p.Keys, ycsbRow(p.ValueSize)); err != nil {
			db.Close()
			return nil, err
		}
		if _, err := db.CreateIndexSpec(0, tbl, scanIndex, false, segs); err != nil {
			db.Close()
			return nil, fmt.Errorf("create index: %w", err)
		}
		return serve(db, r.procs, server.AckImmediate)
	})
	if err != nil {
		return err
	}
	defer env.close()

	callers := r.procs * p.Window
	ops := make([]*scanOps, callers)
	keys := make([][]byte, callers)
	for c := range ops {
		ops[c] = newScanOps(p, r.cfg.seed, c, callers)
	}
	row := make([]byte, p.ValueSize) // counter 0, like every loaded row
	op := func(c int, traced bool) (int, *silo.TxnSpans, error) {
		o := ops[c].next()
		cl := env.clients[c%len(env.clients)]
		if o.scan {
			keys[c] = entryLo(keys[c], o.key)
			page, err := cl.IndexScan(scanIndex, keys[c], nil, p.ScanLen, false)
			if err == nil {
				err = checkPage(page, keys[c], p)
			}
			return kindScan, nil, err
		}
		key := ycsb.Key(o.key, nil)
		if traced {
			_, sp, err := cl.Txn().Insert(ycsb.TableName, key, row).Trace()
			return kindInsert, sp, err
		}
		return kindInsert, nil, cl.Insert(ycsb.TableName, key, row)
	}

	w := wireRun{r: r, env: env, callers: callers, kinds: []string{"iscan", "insert"}, op: op,
		scanOp: wire.KindIScan.String(), scanKind: kindScan}
	w.measure()
	env.stopServer()
	if r.cfg.trace {
		ins := w.ref.lat[kindInsert]
		r.setN("insert_p50_us", usOf(quantile(ins, 0.5)), len(ins))
	}

	ix := env.db.Index(scanIndex)
	if r.cfg.trace {
		entries := make([]wire.IndexEntry, p.ScanLen)
		for i := range entries {
			entries[i] = wire.IndexEntry{SK: make([]byte, 16), PK: make([]byte, 8), Value: make([]byte, p.ValueSize)}
		}
		probeWire(r, 20_000, []codecCase{
			{0.9, wire.Request{Ops: []wire.Op{{Kind: wire.KindIScan, Index: scanIndex, Key: make([]byte, 16), Limit: uint32(p.ScanLen)}}},
				wire.Response{Kind: wire.KindIScanR, Entries: entries}},
			{0.1, wire.Request{Ops: []wire.Op{{Kind: wire.KindInsert, Table: ycsb.TableName, Key: make([]byte, 8), Value: row}}},
				wire.Response{Kind: wire.KindOK}},
		})
		probeBtree(r, p.Keys, r.cfg.seed)
		if err := probeIndexScan(r, env.db, ix, p); err != nil {
			return err
		}
	}

	// The index and the table agree, entry for row, after all the inserts.
	inserted := 0
	for _, o := range ops {
		inserted += o.inserted
	}
	tbl := env.db.Table(ycsb.TableName)
	var entries, rows int
	var bad string
	err = env.db.Run(0, func(tx *silo.Tx) error {
		entries, rows, bad = 0, 0, ""
		err := silo.ScanIndex(tx, ix, []byte{0}, nil, func(sk, pk, value []byte) bool {
			entries++
			if bad == "" && !bytes.Equal(sk, value[:8]) {
				bad = fmt.Sprintf("entry %x does not match row %x", sk, pk)
			}
			return true
		})
		if err != nil {
			return err
		}
		return tx.Scan(tbl, []byte{0}, nil, func(_, _ []byte) bool { rows++; return true })
	})
	if err != nil {
		return fmt.Errorf("index sweep: %w", err)
	}
	r.check(bad == "", "%s", bad)
	r.check(rows == p.Keys+inserted, "table has %d rows, want %d loaded + %d inserted", rows, p.Keys, inserted)
	r.check(entries == rows, "index has %d entries for %d rows", entries, rows)
	return nil
}

// checkPage verifies one ISCANR page: within the limit, in entry-key
// order (secondary key ‖ primary key), starting at or after the requested
// bound, every entry resolved to a whole row.
func checkPage(page []wire.IndexEntry, lo []byte, p scanWireParams) error {
	if len(page) == 0 || len(page) > p.ScanLen {
		return fmt.Errorf("scan returned %d entries, limit %d", len(page), p.ScanLen)
	}
	// The secondary key is 8 bytes wide, so entry-key order is the order
	// of the (secondary key, primary key) pairs.
	prevSK, prevPK := lo[:8], lo[8:]
	for i := range page {
		e := &page[i]
		if c := bytes.Compare(e.SK, prevSK); c < 0 || c == 0 && bytes.Compare(e.PK, prevPK) < 0 {
			return fmt.Errorf("scan page out of order at entry %d", i)
		}
		if len(e.Value) != p.ValueSize {
			return fmt.Errorf("scan entry %d resolved to a %d-byte row", i, len(e.Value))
		}
		prevSK, prevPK = e.SK, e.PK
	}
	return nil
}

// probeIndexScan times silo.ScanIndexBatched — the call the server makes
// for ISCAN — embedded, on the workload's own index.
func probeIndexScan(r *run, db *silo.DB, ix *silo.Index, p scanWireParams) error {
	const scans = 2000
	rng := ycsb.NewRNG(r.cfg.seed ^ 0x1d8)
	var lo []byte
	rows := 0
	start := time.Now()
	for i := 0; i < scans; i++ {
		lo = entryLo(lo, uint64(rng.Intn(p.Keys)))
		err := db.Run(0, func(tx *silo.Tx) error {
			return silo.ScanIndexBatched(tx, ix, lo, nil, p.ScanLen, func(_, _, _ []byte) bool {
				rows++
				return true
			})
		})
		if err != nil {
			return fmt.Errorf("index scan probe: %w", err)
		}
	}
	d := time.Since(start)
	r.span("index.scan", start, d)
	r.setN("index.scan_ns_per_row", ratio(float64(d), float64(rows)), rows)
	return nil
}
