package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"silo/internal/core"
	"silo/internal/epoch"
	"silo/internal/tid"
	"silo/internal/vfs"
)

// kickClock never ticks: a kick runs the callback at once, on the kicking
// goroutine, so a test sees exactly the passes (and epoch advances) that
// kicks cause, and each has finished when the kick returns. Kicks during a
// run coalesce into one more run, as the real clock's do. It is for one
// goroutine: only the test's own goroutine may kick.
type kickClock struct{}

func (kickClock) Now() time.Duration                           { return 0 }
func (kickClock) Ticker(_ time.Duration, fn func()) vfs.Ticker { return &kickTicker{fn: fn} }

type kickTicker struct {
	fn             func()
	running, again bool
}

func (k *kickTicker) Stop() {}

func (k *kickTicker) Kick() {
	if k.running {
		k.again = true
		return
	}
	k.running = true
	for again := true; again; again, k.again = k.again, false {
		k.fn()
	}
	k.running = false
}

// TestStragglerExitWakesLogger: a worker that entered its transaction
// before the open epoch E held every logger pass below its entry epoch, so
// a waiter for E−1 depends on that worker leaving. Whatever way it leaves —
// a read-only commit, an abort or a write commit — its exit kicks its
// logger, and WaitDurable returns without any poll: the logger here never
// polls, and epochs move only when the test advances them.
func TestStragglerExitWakesLogger(t *testing.T) {
	exits := []struct {
		name string
		end  func(tx *core.Tx, tbl *core.Table) error
	}{
		{"read-only commit", func(tx *core.Tx, tbl *core.Table) error {
			if _, err := tx.Get(tbl, []byte("k")); err != nil {
				return err
			}
			return tx.Commit()
		}},
		{"abort", func(tx *core.Tx, tbl *core.Table) error {
			tx.Abort()
			return nil
		}},
		{"write commit", func(tx *core.Tx, tbl *core.Table) error {
			if err := tx.Put(tbl, []byte("k"), []byte("straggler")); err != nil {
				return err
			}
			return tx.Commit()
		}},
	}
	for _, exit := range exits {
		t.Run(exit.name, func(t *testing.T) {
			opts := core.DefaultOptions(2)
			opts.ManualEpochs = true
			s := core.NewStore(opts)
			defer s.Close()
			m, err := Attach(s, Config{Dir: t.TempDir(), Clock: kickClock{}})
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			defer m.Stop()
			tbl := s.CreateTable("t")
			w, straggler := s.Worker(0), s.Worker(1)
			if err := w.Run(func(tx *core.Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) }); err != nil {
				t.Fatal(err)
			}

			stx := straggler.Begin()
			ew := s.Epochs().Global() // the straggler's entry epoch
			if err := w.Run(func(tx *core.Tx) error { return tx.Put(tbl, []byte("k"), []byte("w")) }); err != nil {
				t.Fatal(err)
			}
			// The advance kicks a pass, which cannot make ew durable: the
			// straggler is still inside it.
			if !s.AdvanceEpoch() {
				t.Fatal("the epoch did not advance past a straggler at the open epoch")
			}
			if d := m.DurableEpoch(); d >= ew {
				t.Fatalf("D = %d covers epoch %d while a worker that entered at %d is active", d, ew, ew)
			}
			done := make(chan struct{})
			go func() {
				m.WaitDurable(ew)
				close(done)
			}()
			for m.demand.Load() < ew {
				time.Sleep(100 * time.Microsecond)
			}
			select {
			case <-done:
				t.Fatal("WaitDurable returned before the straggler left")
			default:
			}

			if err := exit.end(stx, tbl); err != nil {
				t.Fatal(err)
			}
			if d := m.DurableEpoch(); d < ew {
				t.Fatalf("D = %d after the straggler's exit, want ≥ %d: its exit woke no logger", d, ew)
			}
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("WaitDurable(%d) still blocked with D = %d", ew, m.DurableEpoch())
			}
		})
	}
}

// groupCommit is the group-commit shape of the wal's ledger row: one worker
// log, txnsPerEpoch transactions of 4 × 100-byte writes per epoch, and
// one waiter per epoch, whose demand closes the epoch and whose wait
// returns once the pass that closing kicks has published D. The epoch
// thread and the logger run on kickClock, so each epoch is synchronous.
type groupCommit struct {
	s      *core.Store
	m      *Manager
	wl     *WorkerLog
	writes []core.LoggedWrite
	seq    uint64
}

const txnsPerEpoch = 8

func newGroupCommit(t testing.TB, cfg Config) *groupCommit {
	opts := core.DefaultOptions(1)
	opts.Clock = kickClock{}
	s := core.NewStore(opts)
	t.Cleanup(s.Close)
	cfg.Dir, cfg.Clock = t.TempDir(), kickClock{}
	m, err := Attach(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(m.Stop)
	g := &groupCommit{s: s, m: m, wl: m.WorkerLog(0)}
	for i := 0; i < 4; i++ {
		g.writes = append(g.writes, core.LoggedWrite{
			Table: 1, Key: binary.BigEndian.AppendUint64(nil, uint64(i)), Value: bytes.Repeat([]byte{byte(i)}, 100)})
	}
	return g
}

// epoch commits one epoch's transactions and waits for them to be durable.
func (g *groupCommit) epoch() {
	e := g.s.Epochs().Global()
	for i := 0; i < txnsPerEpoch; i++ {
		g.seq++
		g.wl.onCommit(tid.Make(e, g.seq), g.writes)
	}
	g.m.WaitDurable(e)
}

// TestGroupCommitMakesEveryEpochDurable checks the ledger row's shape does
// what it says: each waiter's demand closes its epoch, the kicked pass
// makes it durable, and every transaction reaches the log.
func TestGroupCommitMakesEveryEpochDurable(t *testing.T) {
	g := newGroupCommit(t, Config{Sync: true})
	for i := 0; i < 20; i++ {
		e := g.s.Epochs().Global()
		g.epoch()
		if d := g.m.DurableEpoch(); d < e {
			t.Fatalf("epoch %d: WaitDurable returned with D = %d", e, d)
		}
	}
	if got := g.s.Epochs().AdvancesBy(epoch.CauseDemand); got < 20 {
		t.Fatalf("%d demand advances for 20 waited epochs", got)
	}
	g.m.Stop()
	if txns, _ := countLogged(t, g.m.cfg.Dir); txns != 20*txnsPerEpoch {
		t.Fatalf("%d transactions logged, want %d", txns, 20*txnsPerEpoch)
	}
}

// countLogged returns the transactions in dir's log and its durable bound.
func countLogged(t *testing.T, dir string) (txns int, durable uint64) {
	_, files, durables := readLogDir(t, dir)
	for i, f := range files {
		txns += len(f)
		durable = max(durable, durables[i])
	}
	return txns, durable
}

// TestSparesAreBounded: a worker keeps at most maxSpares empty buffers,
// none with a capacity above 2 × BufferBytes, however many buffers a pass
// hands back; the buffer one oversized transaction grew is dropped.
func TestSparesAreBounded(t *testing.T) {
	const bufferBytes = 1 << 10
	g := newGroupCommit(t, Config{BufferBytes: bufferBytes})
	// Each transaction is about 460 bytes, so an epoch of eight fills and
	// closes several buffers: a pass takes more than maxSpares of them.
	for i := 0; i < 10; i++ {
		g.epoch()
		g.wl.mu.Lock()
		spares := len(g.wl.spares)
		for _, b := range g.wl.spares {
			if len(b) != 0 || cap(b) > 2*bufferBytes {
				t.Errorf("epoch %d: a spare with len %d, cap %d", i, len(b), cap(b))
			}
		}
		g.wl.mu.Unlock()
		if spares > maxSpares {
			t.Fatalf("epoch %d: %d spares, want ≤ %d", i, spares, maxSpares)
		}
	}
	big := []core.LoggedWrite{{Table: 1, Key: []byte("big"), Value: make([]byte, 4*bufferBytes)}}
	e := g.s.Epochs().Global()
	g.wl.onCommit(tid.Make(e, 1<<20), big)
	g.m.WaitDurable(e)
	g.epoch() // the pass that hands the big buffer back
	g.wl.mu.Lock()
	defer g.wl.mu.Unlock()
	for _, b := range g.wl.spares {
		if cap(b) > 2*bufferBytes {
			t.Fatalf("kept a spare of capacity %d, above 2 × %d", cap(b), bufferBytes)
		}
	}
}

// walCommitAllocs is the wal ledger row: allocations per committed
// transaction at the group-commit shape, once the buffers cycle.
func walCommitAllocs(t testing.TB) float64 {
	g := newGroupCommit(t, Config{Sync: true})
	for i := 0; i < 4; i++ {
		g.epoch() // fill the spares
	}
	return testing.AllocsPerRun(50, g.epoch) / txnsPerEpoch
}
