package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"silo"
	"silo/client"
	"silo/internal/workload/ycsb"
	"silo/server"
	"silo/wire"
)

// ---------------------------------------------------------------------------
// ycsb.wire

type ycsbWireParams struct {
	Keys      int    `json:"keys"`
	ValueSize int    `json:"value_bytes"`
	ReadPct   int    `json:"read_pct"`
	Window    int    `json:"window_per_conn"`
	Acks      string `json:"acks"`
	Durable   bool   `json:"durable"`
	DataMB    int    `json:"approx_data_mb"` // tree + rows, far beyond the last-level cache
}

func ycsbWireSizing(smoke bool) ycsbWireParams {
	p := ycsbWireParams{Keys: 1_000_000, ValueSize: 100, ReadPct: 80, Window: 8, Acks: "immediate"}
	if smoke {
		p.Keys = 2000
	}
	p.DataMB = p.Keys * 150 / 1_000_000
	return p
}

const (
	kindGet = iota
	kindAdd
)

// ycsbWireOps is the op stream of one caller: uniform keys, ReadPct reads,
// the rest ADDs of a small positive delta.
type ycsbWireOps struct {
	gen *ycsb.Generator
}

type ycsbOp struct {
	read  bool
	key   uint64
	delta int64
}

func (o *ycsbWireOps) next() ycsbOp {
	op := o.gen.Next()
	return ycsbOp{read: op.Read, key: op.Key, delta: 1 + int64(o.gen.RNG().Intn(7))}
}

func newYcsbWireOps(p ycsbWireParams, seed uint64, caller int) *ycsbWireOps {
	cfg := ycsb.Config{Keys: p.Keys, ValueSize: p.ValueSize, ReadPct: p.ReadPct}
	return &ycsbWireOps{gen: ycsb.NewGenerator(cfg, callerSeed(seed, caller))}
}

// callerSeed spreads one workload seed over the callers.
func callerSeed(seed uint64, caller int) uint64 { return seed*1_000_003 + uint64(caller)*7919 }

func runYcsbWire(r *run) error {
	p := ycsbWireSizing(r.cfg.smoke)
	r.params = p

	env, err := setupMedian(r, func() (*wireEnv, error) {
		db, err := silo.Open(silo.Options{Workers: r.procs})
		if err != nil {
			return nil, err
		}
		if err := loadTable(db, db.CreateTable(ycsb.TableName), p.Keys, ycsbRow(p.ValueSize)); err != nil {
			db.Close()
			return nil, err
		}
		return serve(db, r.procs, server.AckImmediate)
	})
	if err != nil {
		return err
	}
	defer env.close()

	callers := r.procs * p.Window
	ops := make([]*ycsbWireOps, callers)
	keys := make([][]byte, callers)
	added := make([]int64, callers) // Σ of deltas the server acknowledged
	for c := range ops {
		ops[c] = newYcsbWireOps(p, r.cfg.seed, c)
	}
	op := func(c int, traced bool) (int, *silo.TxnSpans, error) {
		o := ops[c].next()
		cl := env.clients[c%len(env.clients)]
		keys[c] = ycsb.Key(o.key, keys[c])
		if o.read {
			var val []byte
			var sp *silo.TxnSpans
			var err error
			if traced {
				var res []client.Result
				if res, sp, err = cl.Txn().Get(ycsb.TableName, keys[c]).Trace(); err == nil {
					val = res[0].Value
				}
			} else {
				val, err = cl.Get(ycsb.TableName, keys[c])
			}
			if err == nil && (len(val) != p.ValueSize || val[len(val)-1] != byte(o.key)) {
				err = fmt.Errorf("GET key %d: wrong row (%d bytes)", o.key, len(val))
			}
			return kindGet, sp, err
		}
		var sp *silo.TxnSpans
		var err error
		if traced {
			_, sp, err = cl.Txn().Add(ycsb.TableName, keys[c], o.delta).Trace()
		} else {
			_, err = cl.Add(ycsb.TableName, keys[c], o.delta)
		}
		if err == nil {
			added[c] += o.delta
		}
		return kindAdd, sp, err
	}

	w := wireRun{r: r, env: env, callers: callers, kinds: []string{"get", "add"}, op: op}
	w.measure()
	env.stopServer()

	if r.cfg.trace {
		probeWire(r, 100_000, []codecCase{
			{0.8, wire.Request{Ops: []wire.Op{{Kind: wire.KindGet, Table: ycsb.TableName, Key: make([]byte, 8)}}},
				wire.Response{Kind: wire.KindValue, Value: make([]byte, p.ValueSize)}},
			{0.2, wire.Request{Ops: []wire.Op{{Kind: wire.KindAdd, Table: ycsb.TableName, Key: make([]byte, 8), Delta: 3}}},
				wire.Response{Kind: wire.KindValue, Value: make([]byte, 8)}},
		})
		probeBtree(r, p.Keys, r.cfg.seed)
	}

	// Every acknowledged delta, and nothing else, is in the counters.
	var want, got int64
	for _, a := range added {
		want += a
	}
	tbl := env.db.Table(ycsb.TableName)
	rows := 0
	err = env.db.Run(0, func(tx *silo.Tx) error {
		got, rows = 0, 0
		return tx.Scan(tbl, []byte{0}, nil, func(_, v []byte) bool {
			got += int64(binary.BigEndian.Uint64(v))
			rows++
			return true
		})
	})
	if err != nil {
		return fmt.Errorf("read back counters: %w", err)
	}
	r.check(rows == p.Keys, "table has %d rows, loaded %d", rows, p.Keys)
	r.check(got == want, "counters sum to %d, acknowledged deltas sum to %d", got, want)
	return nil
}

// ---------------------------------------------------------------------------
// ycsb.durable

type ycsbDurableParams struct {
	Keys      int    `json:"keys"`
	ValueSize int    `json:"value_bytes"`
	TxnPuts   int    `json:"puts_per_txn"`
	Window    int    `json:"window_per_conn"`
	EpochMs   int    `json:"epoch_ms"`
	Sync      bool   `json:"sync"`
	Loggers   int    `json:"loggers"`
	Acks      string `json:"acks"`
	Tmpfs     bool   `json:"log_dir_on_tmpfs"`
}

func ycsbDurableSizing(smoke bool) ycsbDurableParams {
	p := ycsbDurableParams{Keys: 100_000, ValueSize: 100, TxnPuts: 4, Window: 64, EpochMs: 40, Sync: true, Loggers: 2, Acks: "group"}
	if smoke {
		p.Keys, p.Window = 4000, 8
	}
	return p
}

// durableOps is one caller's op stream. Each caller owns the keys
// congruent to its index modulo the number of callers, so every key has a
// single writer: no transaction can conflict, and after a crash the one
// writer's sequence numbers say exactly which value a key must hold.
type durableOps struct {
	rng     *ycsb.RNG
	caller  int
	callers int
	owned   int // keys this caller owns
	seq     uint32
}

func newDurableOps(p ycsbDurableParams, seed uint64, caller, callers int) *durableOps {
	return &durableOps{
		rng:     ycsb.NewRNG(callerSeed(seed, caller)),
		caller:  caller,
		callers: callers,
		owned:   (p.Keys - caller + callers - 1) / callers,
	}
}

// next draws the slots (indexes into the caller's own keys) of the next
// transaction: distinct, because one transaction writes a key once.
func (o *durableOps) next(slots []int) uint32 {
	o.seq++
	for i := range slots {
	redraw:
		slots[i] = o.rng.Intn(o.owned)
		for _, s := range slots[:i] {
			if s == slots[i] {
				goto redraw
			}
		}
	}
	return o.seq
}

func (o *durableOps) key(slot int) uint64 { return uint64(o.caller + slot*o.callers) }

// durableValue is the row caller writes to key in its seq-th transaction;
// every byte follows from the three, so a recovered row can be checked
// whole. Sequence 0 is the loaded row.
func durableValue(dst []byte, size int, caller int, seq uint32, key uint64) []byte {
	dst = append(dst[:0], make([]byte, size)...)
	binary.BigEndian.PutUint32(dst[0:], uint32(caller))
	binary.BigEndian.PutUint32(dst[4:], seq)
	fill := byte(uint64(seq)*31 + key)
	for i := 8; i < size; i++ {
		dst[i] = fill + byte(i)
	}
	return dst
}

func runYcsbDurable(r *run) error {
	p := ycsbDurableSizing(r.cfg.smoke)
	callers := r.procs * p.Window
	var logDir string
	env, err := setupMedian(r, func() (*wireEnv, error) {
		dir, err := os.MkdirTemp(r.cfg.dir, "durable-")
		if err != nil {
			return nil, err
		}
		if logDir != "" {
			os.RemoveAll(logDir)
		}
		logDir = dir
		db, err := silo.Open(silo.Options{
			Workers:       r.procs,
			EpochInterval: time.Duration(p.EpochMs) * time.Millisecond,
			Durability:    &silo.DurabilityOptions{Dir: dir, Sync: p.Sync, Loggers: p.Loggers},
		})
		if err != nil {
			return nil, err
		}
		err = loadTable(db, db.CreateTable(ycsb.TableName), p.Keys, func(dst []byte, k int) []byte {
			return durableValue(dst, p.ValueSize, k%callers, 0, uint64(k))
		})
		if err != nil {
			db.Close()
			return nil, err
		}
		return serve(db, r.procs, server.AckGroup)
	})
	if err != nil {
		return err
	}
	defer func() {
		env.close()
		os.RemoveAll(logDir)
	}()
	p.Tmpfs = onTmpfs(logDir)
	r.params = p

	ops := make([]*durableOps, callers)
	acked := make([][]uint32, callers) // per caller, per slot: last acknowledged seq
	slots := make([][]int, callers)
	vals := make([][][]byte, callers)
	for c := range ops {
		ops[c] = newDurableOps(p, r.cfg.seed, c, callers)
		acked[c] = make([]uint32, ops[c].owned)
		slots[c] = make([]int, p.TxnPuts)
		vals[c] = make([][]byte, p.TxnPuts)
	}
	op := func(c int, traced bool) (int, *silo.TxnSpans, error) {
		o := ops[c]
		seq := o.next(slots[c])
		txn := env.clients[c%len(env.clients)].Txn()
		for i, s := range slots[c] {
			key := o.key(s)
			vals[c][i] = durableValue(vals[c][i], p.ValueSize, c, seq, key)
			txn.Put(ycsb.TableName, ycsb.Key(key, nil), vals[c][i])
		}
		var sp *silo.TxnSpans
		var err error
		if traced {
			_, sp, err = txn.Trace()
		} else {
			_, err = txn.Exec()
		}
		if err == nil {
			for _, s := range slots[c] {
				acked[c][s] = seq
			}
		}
		return 0, sp, err
	}

	w := wireRun{r: r, env: env, callers: callers, kinds: []string{"txn"}, op: op, sampleParked: true}
	w.measure()

	// The last acknowledgement has arrived: whatever a crash right now
	// would leave on disk must hold every acknowledged transaction. The
	// copy is taken with the loggers still running and nothing closed. It
	// reads through the OS page cache, so it checks that acknowledged
	// writes were handed to the kernel before the ack, not that the device
	// kept them through a power cut (that is the sim oracle's job).
	crashDir, err := os.MkdirTemp(r.cfg.dir, "durable-crash-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(crashDir)
	if err := copyDir(logDir, crashDir); err != nil {
		return fmt.Errorf("copy log directory: %w", err)
	}
	env.stopServer()

	if r.cfg.trace {
		puts := make([]wire.Op, p.TxnPuts)
		for i := range puts {
			puts[i] = wire.Op{Kind: wire.KindPut, Table: ycsb.TableName, Key: make([]byte, 8), Value: make([]byte, p.ValueSize)}
		}
		probeWire(r, 100_000, []codecCase{{1, wire.Request{Txn: true, Ops: puts},
			wire.Response{Kind: wire.KindTxnR, Results: make([]wire.TxnResult, p.TxnPuts)}}})
		probeBtree(r, p.Keys, r.cfg.seed)
	}

	rec, err := openToRecover(crashDir, r.procs, p.Loggers, 0)
	if err != nil {
		return fmt.Errorf("open crash copy: %w", err)
	}
	defer rec.Close()
	if _, err := rec.Recover(); err != nil {
		return fmt.Errorf("recover crash copy: %w", err)
	}
	tbl := rec.Table(ycsb.TableName)
	if tbl == nil {
		return fmt.Errorf("crash copy has no table %q", ycsb.TableName)
	}
	var want []byte
	return rec.Run(0, func(tx *silo.Tx) error {
		for c, o := range ops {
			for s, last := range acked[c] {
				key := o.key(s)
				got, err := tx.Get(tbl, ycsb.Key(key, nil))
				if err != nil {
					r.check(false, "key %d lost after crash: %v", key, err)
					continue
				}
				// A transaction logged but not yet acknowledged may have
				// survived too, so the row may be newer than the last
				// ack, never older; and it must be a row this caller wrote.
				seq := binary.BigEndian.Uint32(got[4:])
				want = durableValue(want, p.ValueSize, c, seq, key)
				r.check(seq >= last && bytes.Equal(got, want),
					"key %d: recovered seq %d, last acknowledged %d (row intact: %v)", key, seq, last, bytes.Equal(got, want))
			}
		}
		return nil
	})
}

// copyDir copies the files under src (log segments, markers and
// checkpoint sets) into the existing directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			if err := os.Mkdir(filepath.Join(dst, e.Name()), 0o755); err != nil {
				return err
			}
			if err := copyDir(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// parkedSampler polls the release queue's depth gauge: the server keeps
// no maximum of its own, so the benchmark samples one.
type parkedSampler struct {
	stop chan struct{}
	done chan struct{}
	max  atomic.Uint64
}

func sampleParked(env *wireEnv) *parkedSampler {
	s := &parkedSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if v := env.snapshot().Value("silo_server_parked_responses", ""); v > s.max.Load() {
					s.max.Store(v)
				}
			}
		}
	}()
	return s
}

func (s *parkedSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return float64(s.max.Load())
}
