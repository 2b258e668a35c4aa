package recovery

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"

	"silo/internal/core"
	"silo/internal/wal"
)

// replayShape is one log shape BenchmarkReplay recovers. What separates the
// shapes is the rewrite ratio — the share of logged entries that a newer
// entry for the same key supersedes — because that is the property the
// coalescing replay exploits: it decodes every entry but builds one row per
// distinct key.
type replayShape struct {
	name string
	// rows are checkpointed before the log starts; txns two-write
	// transactions are then logged, over the rows (rewriting them) or, with
	// no rows, as inserts of fresh ascending keys.
	rows, txns int
	// key is key i; nil is benchKey.
	key func(i int) []byte
	// oneLogger logs every transaction to logger 0, in one segment, and
	// only a durable frame per pass to logger 1, as an idle logger does.
	// Otherwise the transactions are dealt to both loggers alternately,
	// each rotating to a new segment every benchSegBytes.
	oneLogger bool
}

func (sh replayShape) keyOf(i int) []byte {
	if sh.key == nil {
		return benchKey(i)
	}
	return sh.key(i)
}

var replayShapes = []replayShape{
	// The keys and values of the repository benchmark's recovery.replay
	// workload at a fifth of its size — five logged writes per checkpointed
	// row, rewrite ratio about 0.8 — spread evenly over two loggers' 2 MiB
	// segments.
	{name: "rewrite", rows: 20_000, txns: 50_000},
	// rewrite's transactions laid out as recovery.replay lays them out: its
	// image is written by one worker, so the whole log is one segment of
	// logger 0, beside a logger 1 that holds durable frames only. Recovery
	// must still decode it on every worker.
	{name: "one-logger", rows: 20_000, txns: 50_000, oneLogger: true},
	// Every entry creates its key: rewrite ratio 0, nothing to coalesce.
	// Replay must cost no more here than applying entry by entry would.
	{name: "insert-only", rows: 0, txns: 50_000},
	// rewrite's ratio over 20-byte composite keys whose first 12 bytes are
	// shared by runs of 1 000 keys, as TPC-C's are by a district's orders:
	// the keys of a run tie on both words, so the replay tells them apart
	// by their last four bytes, read from the log.
	{name: "composite", rows: 20_000, txns: 50_000, key: compositeKey},
}

// compositeKey is a 12-byte group prefix, the same for 1 000 keys, then the
// key's place in its group as 8 big-endian bytes.
func compositeKey(i int) []byte {
	k := binary.BigEndian.AppendUint32([]byte("grp:"), 0)
	k = binary.BigEndian.AppendUint32(k, uint32(i/1000))
	return binary.BigEndian.AppendUint64(k, uint64(i%1000))
}

const (
	benchValueBytes = 100
	benchLoggers    = 2
	benchFrameTxns  = 64
	benchSegBytes   = 2 << 20
)

func benchKey(i int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(i)) }

// benchLogs holds each shape's durability directory, built on first use.
var benchLogs struct {
	sync.Mutex
	dirs map[string]string
}

// buildReplayShape writes the shape's checkpoint and log: two loggers, the
// transactions dealt to them alternately (or all to logger 0, see
// oneLogger), frames of benchFrameTxns transactions, a new segment every
// benchSegBytes.
func buildReplayShape(b *testing.B, sh replayShape) string {
	benchLogs.Lock()
	defer benchLogs.Unlock()
	if dir, ok := benchLogs.dirs[sh.name]; ok {
		return dir
	}
	dir, err := os.MkdirTemp("", "silo-replay-bench-"+sh.name)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, benchValueBytes)
	epoch := uint64(1)
	if sh.rows > 0 {
		s := manualStore(b, "t")
		tbl := s.Tables()[0]
		for lo := 0; lo < sh.rows; lo += 512 {
			if err := s.Worker(0).Run(func(tx *core.Tx) error {
				for i := lo; i < min(lo+512, sh.rows); i++ {
					if err := tx.Insert(tbl, sh.keyOf(i), val); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			s.AdvanceEpoch()
		}
		ck, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		epoch = ck.Epoch
	}
	rng := rand.New(rand.NewSource(1))
	var segs [benchLoggers][]byte
	var seqs [benchLoggers]uint64
	var frames [benchLoggers][]logTxn
	flush := func(l int, end bool) {
		if len(frames[l]) > 0 {
			segs[l] = appendBufferFrame(segs[l], frames[l], 'B')
			segs[l] = appendDurableFrame(segs[l], epoch)
			frames[l] = frames[l][:0]
			if sh.oneLogger {
				segs[1] = appendDurableFrame(segs[1], epoch)
			}
		}
		if end || len(segs[l]) >= benchSegBytes && !sh.oneLogger {
			writeSegment(b, dir, l, seqs[l], segs[l])
			seqs[l]++
			segs[l] = nil
		}
	}
	for i := 0; i < sh.txns; i++ {
		k0, k1 := 2*i, 2*i+1
		if sh.rows > 0 {
			k0, k1 = rng.Intn(sh.rows), rng.Intn(sh.rows)
		}
		v0, v1 := make([]byte, benchValueBytes), make([]byte, benchValueBytes)
		binary.BigEndian.PutUint64(v0, rng.Uint64())
		binary.BigEndian.PutUint64(v1, rng.Uint64())
		l := i % benchLoggers
		if sh.oneLogger {
			l = 0
		}
		frames[l] = append(frames[l], logTxn{tid: tidAt(epoch, uint64(i+1)),
			entries: []wal.Entry{put(0, sh.keyOf(k0), v0), put(0, sh.keyOf(k1), v1)}})
		if len(frames[l]) == benchFrameTxns {
			flush(l, false)
		}
	}
	for l := range segs {
		flush(l, true)
	}
	if benchLogs.dirs == nil {
		benchLogs.dirs = map[string]string{}
	}
	benchLogs.dirs[sh.name] = dir
	return dir
}

// BenchmarkReplay prices a whole Recover (checkpoint load included, where
// the shape has one) for each log shape and worker count. Beside txns/s and
// MB/s (over the log bytes, the denominator of
// silo_recovery_replay_bytes_per_sec) it reports two counts, which repeat
// and are what CI gates: allocs/entry — heap allocations per decoded log
// entry — a few thousandths on every shape, insert-only included, because
// a span's records are one slice and its values' buffers pieces of shared
// chunks (each recovered row was two allocations before); and heapB/logB —
// heap bytes allocated per log byte, checkpoint load included — to which a
// segment read into the heap instead of mapped would add 1.
// gcs/op, the garbage collections per Recover, is reported, not gated. Run
// with
//
//	go test -bench 'Replay$' -benchtime 5x -benchmem ./internal/recovery
func BenchmarkReplay(b *testing.B) {
	for _, sh := range replayShapes {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", sh.name, workers), func(b *testing.B) {
				dir := buildReplayShape(b, sh)
				b.ReportAllocs()
				var res Result
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := core.NewStore(core.DefaultOptions(1))
					s.CreateTable("t")
					var err error
					if res, err = Recover(s, dir, Options{Workers: workers}); err != nil {
						b.Fatal(err)
					}
					s.Close()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				if res.TxnsApplied != sh.txns {
					b.Fatalf("replayed %d transactions, logged %d", res.TxnsApplied, sh.txns)
				}
				entries := float64(2 * sh.txns * b.N)
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/entries, "allocs/entry")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(res.LogBytes*int64(b.N)), "heapB/logB")
				b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gcs/op")
				b.ReportMetric(float64(sh.txns*b.N)/b.Elapsed().Seconds(), "txns/s")
				b.ReportMetric(float64(res.LogBytes)*float64(b.N)/(1e6*b.Elapsed().Seconds()), "MB/s")
			})
		}
	}
}

// loadedStore is a store holding n rows of 100-byte values under keyOf(i),
// inserted in batches of 512, with a snapshot epoch beyond them.
func loadedStore(b *testing.B, n int, keyOf func(int) []byte) *core.Store {
	s := manualStore(b, "t")
	tbl := s.Tables()[0]
	val := make([]byte, 100)
	for i := 0; i < n; i += 512 {
		if err := s.Worker(0).Run(func(tx *core.Tx) error {
			for j := i; j < i+512 && j < n; j++ {
				if err := tx.Insert(tbl, keyOf(j), val); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		s.AdvanceEpoch()
	}
	return s
}

// BenchmarkCheckpointWrite compares partition counts for checkpointing a
// loaded store, with keys spread over the first byte and with 8-byte
// big-endian ids, which all start with zero bytes.
func BenchmarkCheckpointWrite(b *testing.B) {
	for _, shape := range []struct {
		name  string
		keyOf func(int) []byte
	}{{"spread", binKey}, {"ids", benchKey}} {
		s := loadedStore(b, 100000, shape.keyOf)
		for _, parts := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/parts=%d", shape.name, parts), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dir := b.TempDir()
					if _, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, parts, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCheckpointLoad prices recovering a directory that holds a
// four-part checkpoint of 100 000 ids with 100-byte values and no log into
// a fresh store, by worker count. It reports allocs/row and B/row, heap
// allocations and bytes per loaded row, which CI gates: a row costs its
// share of its span's record slice and of a value chunk, of the staged
// rows (offsets, not slices), of the items Build takes and of the packed
// leaves — a few thousandths of an allocation — and the part files
// themselves are mapped, not read into the heap. Run with
//
//	go test -bench 'CheckpointLoad$' -benchtime 5x -benchmem ./internal/recovery
func BenchmarkCheckpointLoad(b *testing.B) {
	const n = 100000
	dir := b.TempDir()
	s := loadedStore(b, n, benchKey)
	if _, err := WriteCheckpoint(nil, s, s.Maintenance(), dir, 4, nil); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				s := core.NewStore(core.DefaultOptions(1))
				s.CreateTable("t")
				if res, err := Recover(s, dir, Options{Workers: workers}); err != nil || res.CheckpointRows != n || s.Tables()[0].Tree.Len() != n {
					b.Fatalf("loaded %d rows (%v), want %d", res.CheckpointRows, err, n)
				}
				s.Close()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			rows := float64(n * b.N)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rows, "B/row")
		})
	}
}
