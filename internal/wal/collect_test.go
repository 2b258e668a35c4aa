package wal

import (
	"os"
	"testing"

	"silo/internal/tid"
)

// txnRecord is one logged transaction, copied out of its segment.
type txnRecord struct {
	TID     uint64
	Entries []Entry
}

// txnCollector materializes what it is shown as txnRecords that own their
// bytes — the copying form of the decoder, for tests that keep records
// beyond the segment buffer. What it was shown of a torn frame goes.
type txnCollector struct {
	txns  []txnRecord
	frame int // transactions before the open frame
}

func (c *txnCollector) Frame([]byte, bool) { c.frame = len(c.txns) }

func (c *txnCollector) FrameEnd(torn bool) {
	if torn {
		c.txns = c.txns[:c.frame]
	}
}

func (c *txnCollector) Txn(tid uint64, writes int) bool {
	rec := txnRecord{TID: tid}
	if writes > 0 {
		rec.Entries = make([]Entry, 0, writes)
	}
	c.txns = append(c.txns, rec)
	return true
}

func (c *txnCollector) Entry(table uint32, key, value []byte, del bool) {
	t := &c.txns[len(c.txns)-1]
	t.Entries = append(t.Entries, Entry{
		Table:  table,
		Key:    append([]byte(nil), key...),
		Value:  append([]byte(nil), value...),
		Delete: del,
	})
}

// decode reads data the way recovery does: the verified prefix's
// transactions, copied out, and its durable epoch.
func decode(data []byte) ([]txnRecord, uint64) {
	seg := ScanSegment(data, 1)
	var c txnCollector
	seg.Walk(&c)
	return c.txns, seg.Durable
}

// readLogDir decodes every segment in dir, ordered by (logger, seq): each
// one's transactions and durable epoch. A segment that does not decode to
// the end of its verified prefix fails t.
func readLogDir(t testing.TB, dir string) (infos []LogFileInfo, files [][]txnRecord, durables []uint64) {
	t.Helper()
	infos, err := ListLogFiles(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range infos {
		data, err := os.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		seg := ScanSegment(data, 1)
		var c txnCollector
		if err := seg.Walk(&c); err != nil {
			t.Fatalf("%s: %v", fi.Path, err)
		}
		files = append(files, c.txns)
		durables = append(durables, seg.Durable)
	}
	return infos, files, durables
}

// logState is what the log in a directory says a recovery of it must
// restore, by the paper's rule (§4.10): D, the transactions within it and
// beyond it, and per table the rows whose newest version with epoch ≤ D is
// a put.
type logState struct {
	D                uint64
	applied, skipped int
	rows             map[uint32]map[string]string // table → key → value
}

// replayLog reads the log in dir (readLogDir) and applies the rule to it.
func replayLog(t testing.TB, dir string) logState {
	t.Helper()
	infos, files, durables := readLogDir(t, dir)
	st := logState{D: DurableBound(infos, durables), rows: map[uint32]map[string]string{}}
	type row struct {
		table uint32
		key   string
	}
	type version struct {
		tid uint64
		e   Entry
	}
	newest := map[row]version{}
	for _, f := range files {
		for _, txn := range f {
			if tid.Word(txn.TID).Epoch() > st.D {
				st.skipped++
				continue
			}
			st.applied++
			for _, e := range txn.Entries {
				r := row{e.Table, string(e.Key)}
				if v, ok := newest[r]; !ok || txn.TID > v.tid {
					newest[r] = version{txn.TID, e}
				}
			}
		}
	}
	for r, v := range newest {
		if v.e.Delete {
			continue
		}
		if st.rows[r.table] == nil {
			st.rows[r.table] = map[string]string{}
		}
		st.rows[r.table][r.key] = string(v.e.Value)
	}
	return st
}
