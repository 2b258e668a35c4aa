package ycsb

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"silo"
	"silo/client"
	"silo/internal/kvstore"
	"silo/internal/race"
	"silo/server"
)

func TestKeyEncoding(t *testing.T) {
	k1 := Key(1, nil)
	k2 := Key(2, nil)
	if len(k1) != 8 || len(k2) != 8 {
		t.Fatalf("key lengths %d %d", len(k1), len(k2))
	}
	if string(k1) >= string(k2) {
		t.Fatal("big-endian keys must sort numerically")
	}
	// Buffer reuse.
	buf := make([]byte, 0, 8)
	if got := Key(7, buf); len(got) != 8 {
		t.Fatal("reused buffer wrong length")
	}
}

func TestRNGDeterministicAndSpread(t *testing.T) {
	a, b := NewRNG(1), NewRNG(1)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(2)
	same := 0
	a2 := NewRNG(1)
	for i := 0; i < 100; i++ {
		if a2.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestPerm(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("bad permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestGeneratorMix(t *testing.T) {
	cfg := DefaultConfig(1000)
	g := NewGenerator(cfg, 9)
	reads := 0
	const n = 20000
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Key >= uint64(cfg.Keys) {
			t.Fatalf("key %d out of range", op.Key)
		}
		if op.Read {
			reads++
		}
	}
	frac := float64(reads) / n
	if frac < 0.77 || frac > 0.83 {
		t.Fatalf("read fraction %.3f, want ≈0.80", frac)
	}
}

// openDB opens an in-memory database for the loaders.
func openDB(t *testing.T) *silo.DB {
	t.Helper()
	db, err := silo.Open(silo.Options{Workers: 1, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestLoadAndRunSilo(t *testing.T) {
	db := openDB(t)
	cfg := DefaultConfig(500)
	tbl := LoadSilo(db, cfg)
	if tbl.Tree.Len() != cfg.Keys {
		t.Fatalf("loaded %d keys", tbl.Tree.Len())
	}
	g := NewGenerator(cfg, 3)
	var s Scratch
	for i := 0; i < 500; i++ {
		if !RunSiloOp(db.Store().Worker(0), tbl, Scans{}, g.Next(), &s) {
			t.Fatal("single-worker op aborted")
		}
	}
}

// TestRunSiloOpAllocsFlatInValueSize: a read or RMW of a 1 KiB record
// allocates what one of a 100 B record does — nothing — because a read
// buffer that had to grow is kept for the next operation.
func TestRunSiloOpAllocsFlatInValueSize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	allocs := func(valueSize int, read bool) float64 {
		db := openDB(t)
		tbl := LoadSilo(db, Config{Keys: 64, ValueSize: valueSize})
		w, i := db.Store().Worker(0), uint64(0)
		var s Scratch
		return testing.AllocsPerRun(2000, func() {
			i++
			if !RunSiloOp(w, tbl, Scans{}, Op{Read: read, Key: i % 64}, &s) {
				t.Fatal("single-worker op aborted")
			}
		})
	}
	for _, read := range []bool{true, false} {
		if small, large := allocs(100, read), allocs(1024, read); large != small || small != 0 {
			t.Errorf("read=%v: %.2f allocs/op at 1 KiB, %.2f at 100 B", read, large, small)
		}
	}
}

func TestLoadAndRunKV(t *testing.T) {
	kv := kvstore.New()
	cfg := DefaultConfig(300)
	LoadKV(kv, cfg)
	n := 0
	kv.Scan([]byte{0}, nil, func(_, _ []byte) bool { n++; return true })
	if n != cfg.Keys {
		t.Fatalf("loaded %d", n)
	}
	g := NewGenerator(cfg, 4)
	var kb, vb []byte
	for i := 0; i < 500; i++ {
		kb, vb = RunKVOp(kv, g.Next(), kb, vb)
	}
}

func TestRMWIncrements(t *testing.T) {
	// A 100% RMW stream must leave counters equal to the per-key op count.
	db := openDB(t)
	cfg := Config{Keys: 10, ValueSize: 100, ReadPct: 0}
	tbl := LoadSilo(db, cfg)
	counts := make(map[uint64]uint64)
	g := NewGenerator(cfg, 8)
	var s Scratch
	for i := 0; i < 300; i++ {
		op := g.Next()
		counts[op.Key]++
		if !RunSiloOp(db.Store().Worker(0), tbl, Scans{}, op, &s) {
			t.Fatal("op aborted")
		}
	}
	for k, want := range counts {
		// LoadSilo varies records in their last byte, so counters start
		// at zero like the wire preloader's.
		err := db.Run(0, func(tx *silo.Tx) error {
			v, err := tx.Get(tbl, Key(k, nil))
			if err != nil {
				return err
			}
			if got := binary.BigEndian.Uint64(v); got != want {
				t.Errorf("key %d: counter=%d want %d", k, got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRMWMatchesWireAdd: one embedded RMW (and one Key-Value baseline RMW)
// on a freshly loaded row leaves the same first 8 bytes as one wire ADD of
// +1, so an index over the counter moves the same way in both modes.
func TestRMWMatchesWireAdd(t *testing.T) {
	db, err := silo.Open(silo.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cfg := Config{Keys: 2, ValueSize: 100, ReadPct: 0}
	tbl := LoadSilo(db, cfg)
	if !RunSiloOp(db.Store().Worker(0), tbl, Scans{}, Op{Key: 0}, &Scratch{}) {
		t.Fatal("RMW aborted")
	}
	kv := kvstore.New()
	LoadKV(kv, cfg)
	RunKVOp(kv, Op{Key: 0}, nil, nil)

	srv := server.New(db, server.Options{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	cl, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Add(TableName, Key(1, nil), 1); err != nil {
		t.Fatal(err)
	}
	added, err := cl.Get(TableName, Key(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	rmw, err := cl.Get(TableName, Key(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	kvRMW, _ := kv.GetInto(nil, Key(0, nil))
	if !bytes.Equal(rmw[:8], added[:8]) || !bytes.Equal(kvRMW[:8], added[:8]) {
		t.Errorf("counter bytes after one RMW = %x (Key-Value %x), after one ADD of +1 = %x", rmw[:8], kvRMW[:8], added[:8])
	}
}

// TestLoadSiloRecovers: LoadSilo creates its table through the schema
// catalog, so a durable directory it loaded reopens with every row.
func TestLoadSiloRecovers(t *testing.T) {
	opts := silo.Options{Workers: 1, EpochInterval: time.Millisecond, Durability: &silo.DurabilityOptions{Dir: t.TempDir()}}
	db, err := silo.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1000)
	LoadSilo(db, cfg)
	db.Close()
	db, err = silo.Open(opts)
	if err != nil {
		t.Fatalf("reopening the loaded directory: %v", err)
	}
	defer db.Close()
	if tbl := db.Table(TableName); tbl == nil || tbl.Tree.Len() != cfg.Keys {
		t.Fatalf("recovered table %v, want %d rows", tbl, cfg.Keys)
	}
}
