package recovery

import (
	"fmt"
	"os"
	"sort"

	"silo/internal/core"
	"silo/internal/record"
	"silo/internal/tid"
	"silo/internal/wal"
)

// sequentialRecover is the reference replay the parallel one is held to:
// the paper's recovery rule (§4.10) taken literally. It materializes every
// transaction the log in dir holds, sorts them by TID, skips those beyond
// D and applies the rest one by one onto store, which must hold the
// schema's tables at their logged ids and no rows. It reads no checkpoint
// and knows no schema: the whole log is replayed, catalog rows as rows,
// and an entry of a table store lacks is skipped. The Result it returns
// holds D and the transaction counts.
func sequentialRecover(store *core.Store, dir string) (Result, error) {
	var res Result
	infos, err := wal.ListLogFiles(nil, dir)
	if err != nil {
		return res, err
	}
	if len(infos) == 0 {
		return res, fmt.Errorf("no log files in %s", dir)
	}
	var all []logTxn
	durables := make([]uint64, len(infos))
	for i, fi := range infos {
		data, err := os.ReadFile(fi.Path)
		if err != nil {
			return res, err
		}
		seg := wal.ScanSegment(data, 1)
		c := txnCollector{txns: all}
		if err := seg.Walk(&c); err != nil {
			return res, fmt.Errorf("%s: %w", fi.Path, err)
		}
		all, durables[i] = c.txns, seg.Durable
	}
	res.DurableEpoch = wal.DurableBound(infos, durables)
	sort.Slice(all, func(i, j int) bool { return all[i].tid < all[j].tid })

	for _, t := range all {
		if tid.Word(t.tid).Epoch() > res.DurableEpoch {
			res.TxnsSkipped++
			continue
		}
		res.TxnsApplied++
		word := tid.Word(t.tid).WithLatest(true)
		for _, e := range t.entries {
			tbl := store.TableByID(e.Table)
			if tbl == nil {
				continue
			}
			// In TID order every logged version is newer than the one in
			// the store, so it replaces it: the old row goes, and a put
			// inserts the new one.
			tbl.Tree.Remove(e.Key)
			if !e.Delete {
				tbl.Tree.InsertIfAbsent(e.Key, record.New(word, e.Value))
			}
		}
	}
	return res, nil
}

// txnCollector materializes what a segment's walk shows it as logTxns that
// own their bytes, dropping what it was shown of a frame that did not
// decode.
type txnCollector struct {
	txns  []logTxn
	frame int // transactions before the open frame
}

func (c *txnCollector) Frame([]byte, bool) { c.frame = len(c.txns) }

func (c *txnCollector) FrameEnd(torn bool) {
	if torn {
		c.txns = c.txns[:c.frame]
	}
}

func (c *txnCollector) Txn(tid uint64, writes int) bool {
	c.txns = append(c.txns, logTxn{tid: tid, entries: make([]wal.Entry, 0, writes)})
	return true
}

func (c *txnCollector) Entry(table uint32, key, value []byte, del bool) {
	t := &c.txns[len(c.txns)-1]
	t.entries = append(t.entries, wal.Entry{
		Table:  table,
		Key:    append([]byte(nil), key...),
		Value:  append([]byte(nil), value...),
		Delete: del,
	})
}
