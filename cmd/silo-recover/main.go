// Command silo-recover inspects, replays, and maintains Silo durability
// directories.
//
//	silo-recover -dir /path/to/logs            # summarize segments and D
//	silo-recover -dir /path/to/logs -verbose   # dump every transaction
//	silo-recover -dir /path/to/logs -replay    # parallel checkpoint+log
//	                                           # recovery with a report
//	silo-recover -dir /path/to/logs -replay -parallel 1   # one applier
//	silo-recover -dir /path/to/logs -truncate CE   # delete the segments a
//	                                               # checkpoint at CE covers
//
// Replay restores from the newest complete checkpoint set (a
// checkpoint.<CE>/ directory whose manifest verifies — the one checkpoint
// format) plus the log suffix and prints a recovery report — txns/s and
// MB/s replayed, checkpoint load time versus log replay time — so BENCH
// runs can track recovery speed over time, followed by the recovered
// schema. Logs written with compression need no flag: compressed frames
// carry their own frame kind. Directories written by silo.DB are
// self-describing: the durable schema catalog reconstructs every table and
// index (ids, uniqueness, key-spec transforms, covering include lists), so
// no schema flags exist. Replay is the recovery silo.Open runs, minus
// everything that writes: nothing is appended to the directory, and an
// index creation the crash interrupted is reported as pending, not
// completed (opening the directory with silo.Open rolls it forward or
// back).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"silo/internal/catalog"
	"silo/internal/core"
	"silo/internal/recovery"
	"silo/internal/tid"
	"silo/internal/wal"
)

func main() {
	var (
		dir      = flag.String("dir", "", "log directory (required)")
		verbose  = flag.Bool("verbose", false, "dump every logged transaction")
		replay   = flag.Bool("replay", false, "replay checkpoint+log into a fresh in-memory store")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "recovery workers for -replay (1 = single goroutine)")
		truncate = flag.Uint64("truncate", 0, "delete log files fully covered by a checkpoint at this epoch")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: silo-recover -dir <logdir> [-verbose] [-replay] [-parallel N]")
		os.Exit(2)
	}

	infos, err := wal.ListLogFiles(nil, *dir)
	if err != nil {
		fatal(err)
	}
	if len(infos) == 0 {
		fatal(fmt.Errorf("no log files in %s", *dir))
	}
	files := make([][]wal.TxnRecord, len(infos))
	durables := make([]uint64, len(infos))
	var totalBytes int64
	totalTxns, totalEntries := 0, 0
	for i, fi := range infos {
		var size int64
		files[i], durables[i], size, err = wal.ParseLogFile(nil, fi.Path)
		if err != nil {
			fatal(err)
		}
		totalBytes += size
		var maxTID uint64
		for _, t := range files[i] {
			totalTxns++
			totalEntries += len(t.Entries)
			if t.TID > maxTID {
				maxTID = t.TID
			}
		}
		fmt.Printf("%s: logger %d seq %d: %d txns, %.1f KB, durable epoch d=%d, max TID epoch=%d\n",
			fi.Path, fi.Logger, fi.Seq, len(files[i]), float64(size)/1024, durables[i], tid.Word(maxTID).Epoch())
	}
	d := wal.DurableBound(infos, durables)
	fmt.Printf("global durable epoch D=%d; %d txns, %d record writes, %.1f MB in %d segments\n",
		d, totalTxns, totalEntries, float64(totalBytes)/(1<<20), len(infos))

	if *verbose {
		for i, f := range files {
			for _, t := range f {
				w := tid.Word(t.TID)
				status := "replayable"
				if w.Epoch() > d {
					status = "beyond D (discarded on recovery)"
				}
				fmt.Printf("%s tid(e=%d,seq=%d) %d writes [%s]\n", infos[i].Path, w.Epoch(), w.Seq(), len(t.Entries), status)
				for _, e := range t.Entries {
					op := "put"
					if e.Delete {
						op = "del"
					}
					fmt.Printf("    %s table=%d key=%x vlen=%d\n", op, e.Table, e.Key, len(e.Value))
				}
			}
		}
	}

	if *replay {
		s := core.NewStore(core.DefaultOptions(1))
		defer s.Close()
		cat := catalog.New(s)
		start := time.Now()
		res, err := recovery.Recover(s, *dir, recovery.Options{
			Workers: *parallel,
			Schema:  cat,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		total := time.Since(start)
		res.WriteReport(os.Stdout, total)
		fmt.Printf("recovered schema:\n")
		for _, tbl := range s.Tables() {
			kind := "table"
			switch {
			case tbl.Name == catalog.TableName:
				kind = "catalog"
			case cat.IsEntryTable(tbl.Name):
				kind = "index"
			}
			fmt.Printf("  %-7s id=%-3d %-24s %d keys\n", kind, tbl.ID, tbl.Name, tbl.Tree.Len())
		}
		for _, ix := range cat.Indexes() {
			attrs := ""
			if ix.Unique {
				attrs += " unique"
			}
			if ix.Covering() {
				attrs += fmt.Sprintf(" covering(%d segs)", len(ix.Include))
			}
			attrs += fmt.Sprintf(" spec(%d segs)", len(ix.Spec))
			fmt.Printf("  index %s on %s:%s\n", ix.Name, ix.On.Name, attrs)
		}
		for _, name := range cat.Pending() {
			fmt.Printf("  index %s: creation interrupted mid-backfill; opening the directory with silo.Open will finish or roll it back\n", name)
		}
	}

	if *truncate > 0 {
		// A segment that could not be read to its end is kept and reported;
		// the covered ones are removed all the same.
		removed, err := wal.TruncateLogs(*dir, *truncate)
		fmt.Printf("truncated %d log files covered by checkpoint epoch %d: %v\n",
			len(removed), *truncate, removed)
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silo-recover:", err)
	os.Exit(1)
}
