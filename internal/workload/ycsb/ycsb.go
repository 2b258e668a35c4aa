// Package ycsb implements the YCSB-A variant used in §5.2 and §5.6 of the
// paper: fixed 100-byte records, uniform key choice, and a mix of 80% reads
// / 20% read-modify-writes (each RMW a single transaction). The paper's
// changes versus stock YCSB-A — 80/20 instead of 50/50, RMW instead of
// blind write, 100-byte instead of 1000-byte records — prevent allocator
// and memcpy overheads from hiding the concurrency-control costs being
// measured; we keep them.
package ycsb

import (
	"cmp"
	"encoding/binary"

	"silo"
	"silo/internal/core"
	"silo/internal/kvstore"
)

// Config parameterizes the workload.
type Config struct {
	// Keys is the number of records (the paper uses 160M; laptop-scale runs
	// default much smaller).
	Keys int
	// ValueSize is the record size in bytes (paper: 100).
	ValueSize int
	// ReadPct is the percentage of operations that are reads; the rest are
	// read-modify-writes (paper: 80).
	ReadPct int
	// ScanFrac is the fraction (0..1) of operations that are range scans of
	// ScanLen keys from a uniform start — the YCSB-E-style scan-heavy knob.
	// The remaining operations follow the ReadPct read/RMW split.
	ScanFrac float64
	// ScanLen is the number of keys per scan (default 100 when ScanFrac is
	// set).
	ScanLen int
	// HotFrac is the fraction (0..1) of point operations directed at the
	// hot head of the key space — the first HotKeys keys — instead of a
	// uniform choice. Zero keeps the paper's uniform distribution. The
	// skew manufactures write contention (e.g. HotFrac=0.5, HotKeys=8 on
	// an RMW-heavy mix) for exercising conflict handling; scans ignore it.
	HotFrac float64
	// HotKeys is the size of the hot set HotFrac draws from (default 8
	// when HotFrac is set).
	HotKeys int
}

// DefaultConfig returns the paper's parameters at a laptop-scale key count.
func DefaultConfig(keys int) Config {
	return Config{Keys: keys, ValueSize: 100, ReadPct: 80}
}

// Key encodes record i into an 8-byte big-endian key, overwriting buf.
func Key(i uint64, buf []byte) []byte { return AppendKey(i, buf[:0]) }

// AppendKey is Key appending to buf instead of overwriting it (for
// composite bounds like entry-key prefixes).
func AppendKey(i uint64, buf []byte) []byte { return binary.BigEndian.AppendUint64(buf, i) }

// RNG is a per-worker SplitMix64 generator: cheap, decent quality, no
// shared state.
type RNG uint64

// NewRNG seeds a generator; distinct workers should use distinct seeds.
func NewRNG(seed uint64) *RNG {
	r := RNG(seed*2654435761 + 1)
	return &r
}

// Next returns the next 64-bit value.
func (r *RNG) Next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Op is one generated operation.
type Op struct {
	Read bool // read (vs read-modify-write); meaningless when Scan is set
	Scan bool // range scan of Len keys starting at Key
	Key  uint64
	Len  int // scan length
}

// Generator produces the operation stream for one worker.
type Generator struct {
	cfg     Config
	rng     *RNG
	scanBps int // ScanFrac in basis points, precomputed
	scanLen int
	hotBps  int // HotFrac in basis points, precomputed
	hotKeys uint64
}

// NewGenerator returns a per-worker generator.
func NewGenerator(cfg Config, seed uint64) *Generator {
	scanLen := cfg.ScanLen
	if scanLen <= 0 {
		scanLen = 100
	}
	return &Generator{
		cfg:     cfg,
		rng:     NewRNG(seed),
		scanBps: int(cfg.ScanFrac * 10000),
		scanLen: scanLen,
		hotBps:  int(cfg.HotFrac * 10000),
		hotKeys: min(uint64(cmp.Or(cfg.HotKeys, 8)), uint64(cfg.Keys)),
	}
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	key := g.rng.Next() % uint64(g.cfg.Keys)
	if g.scanBps > 0 && g.rng.Intn(10000) < g.scanBps {
		return Op{Scan: true, Key: key, Len: g.scanLen}
	}
	if g.hotBps > 0 && g.rng.Intn(10000) < g.hotBps {
		key = g.rng.Next() % g.hotKeys
	}
	return Op{
		Read: g.rng.Intn(100) < g.cfg.ReadPct,
		Key:  key,
	}
}

// RNG exposes the generator's randomness (value mutation).
func (g *Generator) RNG() *RNG { return g.rng }

// TableName is the table the loaders create.
const TableName = "usertable"

// LoadSilo creates the table on db — a logged catalog record, so a
// durable db recovers it — and fills it with cfg.Keys records in batched
// transactions on worker 0. It returns the table.
func LoadSilo(db *silo.DB, cfg Config) *silo.Table {
	tbl := db.CreateTable(TableName)
	val := make([]byte, cfg.ValueSize)
	var kb []byte
	const batch = 512
	for lo := 0; lo < cfg.Keys; lo += batch {
		hi := min(lo+batch, cfg.Keys)
		err := db.Run(0, func(tx *silo.Tx) error {
			for i := lo; i < hi; i++ {
				kb = Key(uint64(i), kb)
				// Vary the record in its LAST byte, like the wire
				// preloader: the first 8 bytes are the ADD counter, and
				// clobbering its high byte would scatter the counter
				// index's entries (and start counters at i<<56 instead
				// of 0), making embedded and wire runs incomparable.
				val[len(val)-1] = byte(i)
				if err := tx.Insert(tbl, kb, val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			panic("ycsb: load failed: " + err.Error())
		}
	}
	return tbl
}

// LoadKV populates the Key-Value baseline.
func LoadKV(kv *kvstore.Store, cfg Config) {
	val := make([]byte, cfg.ValueSize)
	var kb []byte
	for i := 0; i < cfg.Keys; i++ {
		kb = Key(uint64(i), kb)
		val[len(val)-1] = byte(i) // matches LoadSilo and the wire preloader
		kv.Put(kb, val)
	}
}

// Scans says how RunSiloOp serves a scan: through Index when it is set —
// resolving rows, or with Covering from the entries' included fields
// alone, and with Snapshot at a consistent snapshot — and otherwise as a
// range scan of the primary table.
type Scans struct {
	Index              *silo.Index
	Covering, Snapshot bool
}

// Scratch is one caller's reusable buffers for RunSiloOp: the key (or an
// index scan's lower bound) and the value a read appends to. A value that
// outgrows its buffer leaves the larger one for the next operation.
type Scratch struct{ key, val []byte }

// RunSiloOp executes one operation as one transaction attempt on a core
// worker and reports whether it committed (false = conflict abort). Reads
// go through the allocation-free GetAppend path, as a tuned client would.
// RMW reads the record, increments its first 8 bytes as a big-endian
// counter — the wire ADD's encoding, so an embedded run moves the counter
// and any index over it exactly as a wire run does — and writes it back in
// the same transaction. A scan reads op.Len rows or entries as sc says.
func RunSiloOp(w *core.Worker, tbl *core.Table, sc Scans, op Op, s *Scratch) bool {
	if op.Scan {
		return runScan(w, tbl, sc, op, s) == nil
	}
	s.key = Key(op.Key, s.key)
	err := w.RunOnce(func(tx *core.Tx) error {
		v, err := tx.GetAppend(tbl, s.key, s.val[:0])
		s.val = v[:0]
		if err != nil || op.Read {
			return err
		}
		binary.BigEndian.PutUint64(v, binary.BigEndian.Uint64(v)+1)
		return tx.Put(tbl, s.key, v)
	})
	return err == nil
}

func runScan(w *core.Worker, tbl *core.Table, sc Scans, op Op, s *Scratch) error {
	if sc.Index == nil {
		s.key = Key(op.Key, s.key)
		return w.RunOnce(func(tx *core.Tx) error {
			n := 0
			return tx.Scan(tbl, s.key, nil, func(_, _ []byte) bool {
				n++
				return n < op.Len
			})
		})
	}
	// The counter index's entry keys are counter ‖ pk and counters start
	// at zero, so (0 ‖ key) begins the scan at that row's entry: scan
	// ranges spread across the index as YCSB-E's spread across the key
	// space, instead of every scan reading the index head.
	s.key = AppendKey(op.Key, append(s.key[:0], 0, 0, 0, 0, 0, 0, 0, 0))
	visit := func(_, _, _ []byte) bool { return true }
	read := func(r silo.Reader) error {
		if sc.Covering {
			return silo.ScanIndexCovering(r, sc.Index, s.key, nil, op.Len, visit)
		}
		return silo.ScanIndexBatched(r, sc.Index, s.key, nil, op.Len, visit)
	}
	if sc.Snapshot {
		return w.RunSnapshot(func(stx *core.SnapTx) error { return read(stx) })
	}
	return w.RunOnce(func(tx *core.Tx) error { return read(tx) })
}

// RunKVOp executes one operation against the Key-Value baseline; its RMW
// increments the same big-endian counter as RunSiloOp's.
func RunKVOp(kv *kvstore.Store, op Op, kb, vb []byte) (keyBuf, valBuf []byte) {
	kb = Key(op.Key, kb)
	if op.Read {
		vb, _ = kv.GetInto(vb[:0], kb)
		return kb, vb
	}
	kv.ReadModifyWrite(kb, func(val []byte) {
		binary.BigEndian.PutUint64(val, binary.BigEndian.Uint64(val)+1)
	})
	return kb, vb
}
