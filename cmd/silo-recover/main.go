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
// The summary and -verbose read the log twice, one segment mapped at a
// time, and hold no transaction past its frame, so their memory does not
// grow with the log: the summary pass checks and walks every segment,
// counting, which yields D; the -verbose pass walks them again and prints
// each transaction with its status against D.
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
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"silo/internal/catalog"
	"silo/internal/core"
	"silo/internal/recovery"
	"silo/internal/tid"
	"silo/internal/vfs"
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
		fmt.Fprintln(os.Stderr, "usage: silo-recover -dir <logdir> [-verbose] [-replay] [-parallel N] [-truncate CE]")
		os.Exit(2)
	}

	if err := summarize(os.Stdout, *dir, *verbose); err != nil {
		fatal(err)
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

// summarize prints a line per log segment in dir, in (logger, seq) order,
// then the global durable epoch D with the log's totals, and with verbose
// then every logged transaction and its writes, marked against D.
func summarize(w io.Writer, dir string, verbose bool) error {
	infos, err := wal.ListLogFiles(nil, dir)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		return fmt.Errorf("no log files in %s", dir)
	}
	durables := make([]uint64, len(infos))
	var all lister
	var totalBytes int64
	for i, fi := range infos {
		var l lister
		var size int64
		if durables[i], size, err = walkSegment(fi.Path, &l); err != nil {
			return err
		}
		all.txns, all.writes = all.txns+l.txns, all.writes+l.writes
		totalBytes += size
		fmt.Fprintf(w, "%s: logger %d seq %d: %d txns, %.1f KB, durable epoch d=%d, max TID epoch=%d\n",
			fi.Path, fi.Logger, fi.Seq, l.txns, float64(size)/1024, durables[i], tid.Word(l.maxTID).Epoch())
	}
	d := wal.DurableBound(infos, durables)
	fmt.Fprintf(w, "global durable epoch D=%d; %d txns, %d record writes, %.1f MB in %d segments\n",
		d, all.txns, all.writes, float64(totalBytes)/(1<<20), len(infos))
	if !verbose {
		return nil
	}
	for _, fi := range infos {
		if _, _, err := walkSegment(fi.Path, &lister{out: w, path: fi.Path, d: d}); err != nil {
			return err
		}
	}
	return nil
}

// walkSegment maps the segment at path, checks its frames and walks the
// verified prefix into v, returning the segment's durable epoch and size.
// A frame with a valid checksum that does not decode is an error naming
// the segment and the frame's offset (see wal.Segment.Walk).
func walkSegment(path string, v wal.Visitor) (durable uint64, size int64, err error) {
	data, release, err := vfs.DefaultFS(nil).Map(path)
	if err != nil {
		return 0, 0, err
	}
	defer release()
	seg := wal.ScanSegment(data, 1)
	if err := seg.Walk(v); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	return seg.Durable, seg.Size, nil
}

// lister is the visitor of both passes over a segment: it counts the
// transactions and record writes it is shown, and the largest TID. With out
// set it also prints each transaction, with its status against D, and its
// writes, holding a frame's lines until the frame has decoded to its end,
// so that nothing of a frame that does not decode is printed.
type lister struct {
	txns, writes int
	maxTID       uint64

	out   io.Writer
	path  string
	d     uint64
	frame bytes.Buffer
}

func (l *lister) Frame([]byte, bool) { l.frame.Reset() }

func (l *lister) FrameEnd(torn bool) {
	if l.out != nil && !torn {
		l.out.Write(l.frame.Bytes())
	}
}

func (l *lister) Txn(t uint64, writes int) bool {
	l.txns++
	l.writes += writes
	l.maxTID = max(l.maxTID, t)
	if l.out != nil {
		w := tid.Word(t)
		status := "replayable"
		if w.Epoch() > l.d {
			status = "beyond D (discarded on recovery)"
		}
		fmt.Fprintf(&l.frame, "%s tid(e=%d,seq=%d) %d writes [%s]\n", l.path, w.Epoch(), w.Seq(), writes, status)
	}
	return l.out != nil
}

func (l *lister) Entry(table uint32, key, value []byte, del bool) {
	op := "put"
	if del {
		op = "del"
	}
	fmt.Fprintf(&l.frame, "    %s table=%d key=%x vlen=%d\n", op, table, key, len(value))
}
