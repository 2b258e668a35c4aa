package recovery

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"silo/internal/catalog"
	"silo/internal/core"
	"silo/internal/tid"
	"silo/internal/wal"
)

// This file writes log segments byte by byte from the format documented in
// internal/wal/format.go, on purpose without that package's encoder: the
// replay tests and benchmarks get logs of any shape they ask for — epochs
// on both sides of CE and D, duplicate keys across loggers, non-monotone
// durable frames, torn tails — and the decoder is checked against a second
// reading of the format.

// logTxn is one transaction to be logged.
type logTxn struct {
	tid     uint64
	entries []wal.Entry
}

// appendBufferFrame appends one frame holding txns: a buffer frame (kind
// 'B') or a deflated one (kind 'C').
func appendBufferFrame(dst []byte, txns []logTxn, kind byte) []byte {
	return appendFrame(dst, txnPayload(txns), kind)
}

// txnPayload is txns in the transaction-record format.
func txnPayload(txns []logTxn) []byte {
	var p []byte
	for _, t := range txns {
		p = binary.LittleEndian.AppendUint64(p, t.tid)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(t.entries)))
		for _, e := range t.entries {
			p = binary.LittleEndian.AppendUint32(p, e.Table)
			p = binary.LittleEndian.AppendUint16(p, uint16(len(e.Key)))
			p = append(p, e.Key...)
			if e.Delete {
				p = binary.LittleEndian.AppendUint32(p, ^uint32(0))
				continue
			}
			p = binary.LittleEndian.AppendUint32(p, uint32(len(e.Value)))
			p = append(p, e.Value...)
		}
	}
	return p
}

// appendFrame appends payload p as a frame of the given kind — deflated
// first for kind 'C' — with a matching CRC, whatever p holds.
func appendFrame(dst, p []byte, kind byte) []byte {
	if kind == 'C' {
		var cb bytes.Buffer
		fw, _ := flate.NewWriter(&cb, flate.BestSpeed)
		fw.Write(p)
		fw.Close()
		p = cb.Bytes()
	}
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(p))
	return append(dst, p...)
}

// appendDurableFrame appends one durable-epoch frame.
func appendDurableFrame(dst []byte, epoch uint64) []byte {
	dst = append(dst, 'D')
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[len(dst)-8:]))
}

// writeSegment stores data as segment seq of logger id in dir.
func writeSegment(tb testing.TB, dir string, id int, seq uint64, data []byte) {
	tb.Helper()
	if err := os.WriteFile(filepath.Join(dir, wal.SegmentName(id, seq)), data, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// put and del build log entries.
func put(table uint32, key, value []byte) wal.Entry {
	return wal.Entry{Table: table, Key: key, Value: value}
}

func del(table uint32, key []byte) wal.Entry {
	return wal.Entry{Table: table, Key: key, Delete: true}
}

// tidAt is the TID with the given epoch and sequence number.
func tidAt(epoch, seq uint64) uint64 { return uint64(tid.Make(epoch, seq)) }

// manualOpts are the options of a store of one worker whose epochs only
// the test advances.
func manualOpts() core.Options {
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true
	opts.SnapshotK = 2
	return opts
}

// catalogStore is a store laid out as silo.Open lays one out: the DDL
// catalog at table CatalogTableID, then the named tables created through
// it, in order, at ids 1, 2, … — each creation a catalog row, checkpointed
// like any other row. Given no tables it is the store Recover fills, its
// catalog Options.Schema. A test whose log must hold the creations
// attaches its loggers first and then calls create. The caller closes the
// store.
func catalogStore(tb testing.TB, opts core.Options, tables ...string) (*core.Store, *catalog.Catalog) {
	tb.Helper()
	s := core.NewStore(opts)
	cat := catalog.New(s)
	create(tb, cat, tables...)
	return s, cat
}

// create creates the named tables through cat, in order.
func create(tb testing.TB, cat *catalog.Catalog, tables ...string) []*core.Table {
	tb.Helper()
	var out []*core.Table
	for _, name := range tables {
		t, err := cat.CreateTable(name)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, t)
	}
	return out
}

// recoverDir recovers dir as silo.Open does: into a new catalogStore of
// no tables, whose catalog is Options.Schema.
func recoverDir(tb testing.TB, dir string, opts Options) (*core.Store, Result, error) {
	tb.Helper()
	s, cat := catalogStore(tb, manualOpts())
	opts.Schema = cat
	res, err := Recover(s, dir, opts)
	return s, res, err
}

// createTxn is the transaction that creates the named tables through the
// catalog, at ids 1, 2, …, as a log holds it: the catalog rows
// catalogStore writes, in one transaction with the given TID.
func createTxn(at uint64, tables ...string) logTxn {
	txn := logTxn{tid: at}
	for i, name := range tables {
		rec := catalog.Record{Kind: catalog.KindCreateTable, Name: name, ID: uint32(i + 1)}
		txn.entries = append(txn.entries, put(CatalogTableID, catalog.SeqKey(uint64(i+1)), rec.Encode(nil)))
	}
	return txn
}
