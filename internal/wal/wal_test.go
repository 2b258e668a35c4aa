package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"silo/internal/core"
	"silo/internal/obs"
	"silo/internal/tid"
)

// ---- Format ----

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := appendTxn(nil, uint64(tid.Make(3, 7)), []Entry{
		{Table: 1, Key: []byte("k1"), Value: []byte("v1")},
		{Table: 2, Key: []byte("k2"), Delete: true},
	})
	payload = appendTxn(payload, uint64(tid.Make(3, 8)), nil)
	if err := writeBufferFrame(&buf, frameBuffer, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeDurableFrame(&buf, 42); err != nil {
		t.Fatal(err)
	}

	txns, durable := decode(buf.Bytes())
	if len(txns) != 2 || durable != 42 {
		t.Fatalf("decoded %+v with durable epoch %d, want 2 transactions and 42", txns, durable)
	}
	tx := txns[0]
	if tid.Word(tx.TID).Seq() != 7 || len(tx.Entries) != 2 {
		t.Fatalf("txn: %+v", tx)
	}
	if string(tx.Entries[0].Key) != "k1" || string(tx.Entries[0].Value) != "v1" {
		t.Fatalf("entry 0: %+v", tx.Entries[0])
	}
	if !tx.Entries[1].Delete || tx.Entries[1].Value != nil {
		t.Fatalf("entry 1: %+v", tx.Entries[1])
	}
	if len(txns[1].Entries) != 0 {
		t.Fatalf("txn 2 has entries")
	}
}

func TestFormatProperty(t *testing.T) {
	f := func(tidv uint64, keys [][]byte, vals [][]byte, dels []bool) bool {
		var entries []Entry
		for i, k := range keys {
			if len(k) == 0 || len(k) > 60 {
				continue
			}
			e := Entry{Table: uint32(i), Key: k}
			if i < len(dels) && dels[i] {
				e.Delete = true
			} else if i < len(vals) {
				e.Value = vals[i]
				if e.Value == nil {
					e.Value = []byte{}
				}
			} else {
				e.Value = []byte{}
			}
			entries = append(entries, e)
		}
		payload := appendTxn(nil, tidv&^tid.StatusMask, entries)
		var buf bytes.Buffer
		if err := writeBufferFrame(&buf, frameBuffer, payload); err != nil {
			return false
		}
		txns, _ := decode(buf.Bytes())
		if len(txns) != 1 {
			return false
		}
		got := txns[0]
		if got.TID != tidv&^tid.StatusMask || len(got.Entries) != len(entries) {
			return false
		}
		for i := range entries {
			if !bytes.Equal(got.Entries[i].Key, entries[i].Key) ||
				got.Entries[i].Delete != entries[i].Delete {
				return false
			}
			if !entries[i].Delete && !bytes.Equal(got.Entries[i].Value, entries[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTornFrameDetection(t *testing.T) {
	var buf bytes.Buffer
	payload := appendTxn(nil, uint64(tid.Make(1, 1)), []Entry{{Table: 0, Key: []byte("k"), Value: []byte("v")}})
	writeBufferFrame(&buf, frameBuffer, payload)
	writeDurableFrame(&buf, 1)
	full := buf.Bytes()

	// Any truncation inside the last frame ends the log there: the first
	// frame survives, the torn one yields nothing, never garbage.
	for cut := len(full) - 1; cut > len(full)-13; cut-- {
		if txns, durable := decode(full[:cut]); len(txns) != 1 || durable != 0 {
			t.Fatalf("cut=%d: decoded %d transactions and durable epoch %d, want the first frame alone", cut, len(txns), durable)
		}
	}
	if _, _, _, _, err := frameAt(full[:len(full)-1], len(full)-13, true); err != ErrCorrupt {
		t.Fatalf("torn durable frame: %v, want ErrCorrupt", err)
	}

	// Corrupt a payload byte: CRC must catch it, and nothing after it is
	// trusted either.
	mid := make([]byte, len(full))
	copy(mid, full)
	mid[10] ^= 0xFF
	if _, _, _, _, err := frameAt(mid, 0, true); err != ErrCorrupt {
		t.Fatalf("corrupt payload: %v, want ErrCorrupt", err)
	}
	if txns, durable := decode(mid); len(txns) != 0 || durable != 0 {
		t.Fatalf("corrupt payload: decoded %d transactions and durable epoch %d", len(txns), durable)
	}

	// Unknown frame kind.
	if _, _, _, _, err := frameAt([]byte{'Z', 1, 2, 3}, 0, true); err == nil {
		t.Fatal("unknown frame kind accepted")
	}
}

// ---- Logging + durable epoch ----

// attachedStore is a store with a started manager in which nothing runs on
// its own: epochs advance and logger passes run when the test says so
// (makeDurable, runPasses).
func attachedStore(t testing.TB, workers int, cfg Config) (*core.Store, *Manager) {
	t.Helper()
	opts := core.DefaultOptions(workers)
	opts.ManualEpochs = true
	s := core.NewStore(opts)
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	cfg.Clock = heldClock{}
	m, err := Attach(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(func() { s.Close() })
	return s, m
}

// pass closes the open epoch and runs every logger once, as the epoch
// thread and the logger tickers would; it reports whether the epoch
// advanced (an active straggler holds it back).
func pass(s *core.Store, m *Manager) bool {
	advanced := s.AdvanceEpoch()
	for _, lg := range m.loggers {
		lg.iterate()
	}
	return advanced
}

// runPasses runs passes back to back on their own goroutine, concurrently
// with the workers, until the returned stop is called; stop returns once
// the last pass has finished.
func runPasses(s *core.Store, m *Manager) (stop func()) {
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
				pass(s, m)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// makeDurable runs one pass over quiescent workers, which makes every
// commit so far durable, and checks that D covers each worker's last one.
func makeDurable(t testing.TB, s *core.Store, m *Manager, workers int) {
	t.Helper()
	if !pass(s, m) {
		t.Fatal("epoch did not advance over quiescent workers")
	}
	for w := 0; w < workers; w++ {
		if e := tid.Word(s.Worker(w).LastCommitTID()).Epoch(); m.DurableEpoch() < e {
			t.Fatalf("durable epoch %d after a pass over quiescent workers, worker %d committed in %d", m.DurableEpoch(), w, e)
		}
	}
}

func TestDurableEpochAdvances(t *testing.T) {
	s, m := attachedStore(t, 2, Config{})
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	for i := 0; i < 50; i++ {
		if err := w.Run(func(tx *core.Tx) error {
			return tx.Insert(tbl, []byte(fmt.Sprintf("k%03d", i)), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			pass(s, m)
		}
	}
	e := s.Epochs().Global()
	makeDurable(t, s, m, 2)
	if m.DurableEpoch() != e {
		t.Fatalf("durable epoch %d after closing epoch %d", m.DurableEpoch(), e)
	}
	m.Stop()
	var snap obs.Snapshot
	m.CollectObs(&snap)
	if got := snap.Value("silo_wal_txns_logged_total", ""); got != 50 {
		t.Fatalf("%d transactions logged, want 50", got)
	}
}

// TestWaitDurable: WaitDurable returns once, and only once, D covers the
// epoch it waits for.
func TestWaitDurable(t *testing.T) {
	s, m := attachedStore(t, 1, Config{})
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	if err := w.Run(func(tx *core.Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	epoch := tid.Word(w.LastCommitTID()).Epoch()
	done := make(chan uint64)
	go func() {
		m.WaitDurable(epoch)
		done <- m.DurableEpoch()
	}()
	select {
	case d := <-done:
		t.Fatalf("WaitDurable(%d) returned before any logger pass (D=%d)", epoch, d)
	default:
	}
	makeDurable(t, s, m, 1)
	if d := <-done; d < epoch {
		t.Fatalf("WaitDurable returned early: D=%d epoch=%d", d, epoch)
	}
	m.Stop()
}

// ---- Recovery ----

func TestCommitRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, m := attachedStore(t, 2, Config{Dir: dir})
	ta := s.CreateTable("a")
	tb := s.CreateTable("b")

	stop := runPasses(s, m)
	var wg sync.WaitGroup
	for wid := 0; wid < 2; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			w := s.Worker(wid)
			for i := 0; i < 100; i++ {
				k := []byte(fmt.Sprintf("w%d-%03d", wid, i))
				if err := w.Run(func(tx *core.Tx) error {
					if err := tx.Insert(ta, k, []byte(fmt.Sprintf("val-%d-%d", wid, i))); err != nil {
						return err
					}
					return tx.Insert(tb, k, []byte("b"))
				}); err != nil {
					t.Errorf("w%d: %v", wid, err)
					return
				}
			}
			// Overwrite some, delete some.
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("w%d-%03d", wid, i))
				if err := w.Run(func(tx *core.Tx) error {
					if i%2 == 0 {
						return tx.Put(ta, k, []byte("updated"))
					}
					return tx.Delete(ta, k)
				}); err != nil {
					t.Errorf("w%d update: %v", wid, err)
					return
				}
			}
		}(wid)
	}
	wg.Wait()
	stop()
	makeDurable(t, s, m, 2)
	m.Stop()

	// Capture expected state.
	type kv struct{ k, v string }
	var want []kv
	if err := s.Worker(0).Run(func(tx *core.Tx) error {
		return tx.Scan(ta, []byte("w"), nil, func(k, v []byte) bool {
			want = append(want, kv{string(k), string(v)})
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	st := replayLog(t, dir)
	if st.applied == 0 {
		t.Fatal("nothing replayed")
	}
	got := st.rows[ta.ID]
	if len(got) != len(want) {
		t.Fatalf("the log recovers %d rows, want %d (applied=%d skipped=%d)",
			len(got), len(want), st.applied, st.skipped)
	}
	for _, w := range want {
		if got[w.k] != w.v {
			t.Fatalf("row %q: the log recovers %q, want %q", w.k, got[w.k], w.v)
		}
	}
}

func TestRecoveryIgnoresBeyondD(t *testing.T) {
	// Write a log by hand: epoch-2 txn, durable frame d=2, epoch-5 txn with
	// no following durable frame covering it. Recovery must apply the first
	// and skip the second.
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "log.0"))
	if err != nil {
		t.Fatal(err)
	}
	p1 := appendTxn(nil, uint64(tid.Make(2, 1)), []Entry{{Table: 0, Key: []byte("a"), Value: []byte("1")}})
	writeBufferFrame(f, frameBuffer, p1)
	writeDurableFrame(f, 2)
	p2 := appendTxn(nil, uint64(tid.Make(5, 1)), []Entry{{Table: 0, Key: []byte("b"), Value: []byte("2")}})
	writeBufferFrame(f, frameBuffer, p2)
	f.Close()

	st := replayLog(t, dir)
	if st.D != 2 || st.applied != 1 || st.skipped != 1 {
		t.Fatalf("D=%d applied=%d skipped=%d, want 2, 1 and 1", st.D, st.applied, st.skipped)
	}
	if _, ok := st.rows[0]["a"]; !ok {
		t.Fatal("durable txn not recovered")
	}
	if _, ok := st.rows[0]["b"]; ok {
		t.Fatal("beyond-D txn was recovered")
	}
}

func TestRecoveryTIDOrderPerKey(t *testing.T) {
	// Two loggers, same key written at TIDs 10 and 20 in different files;
	// replay must end with the larger TID's value regardless of file order.
	dir := t.TempDir()
	for i, tv := range []uint64{uint64(tid.Make(1, 20)), uint64(tid.Make(1, 10))} {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("log.%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		val := []byte(fmt.Sprintf("seq%d", tid.Word(tv).Seq()))
		writeBufferFrame(f, frameBuffer, appendTxn(nil, tv, []Entry{{Table: 0, Key: []byte("k"), Value: val}}))
		writeDurableFrame(f, 1)
		f.Close()
	}
	if got := replayLog(t, dir).rows[0]["k"]; got != "seq20" {
		t.Fatalf("final value %q, want seq20", got)
	}
}

func TestRecoveryDeleteReplay(t *testing.T) {
	dir := t.TempDir()
	f, _ := os.Create(filepath.Join(dir, "log.0"))
	writeBufferFrame(f, frameBuffer, appendTxn(nil, uint64(tid.Make(1, 1)),
		[]Entry{{Table: 0, Key: []byte("k"), Value: []byte("v")}}))
	writeBufferFrame(f, frameBuffer, appendTxn(nil, uint64(tid.Make(1, 2)),
		[]Entry{{Table: 0, Key: []byte("k"), Delete: true}}))
	writeDurableFrame(f, 1)
	f.Close()

	if v, ok := replayLog(t, dir).rows[0]["k"]; ok {
		t.Fatalf("deleted key visible after recovery: %q", v)
	}
}

func TestTornTailRecovery(t *testing.T) {
	// A crash mid-write leaves a torn final frame; recovery uses the
	// preceding durable prefix.
	dir := t.TempDir()
	path := filepath.Join(dir, "log.0")
	f, _ := os.Create(path)
	writeBufferFrame(f, frameBuffer, appendTxn(nil, uint64(tid.Make(1, 1)),
		[]Entry{{Table: 0, Key: []byte("good"), Value: []byte("v")}}))
	writeDurableFrame(f, 1)
	writeBufferFrame(f, frameBuffer, appendTxn(nil, uint64(tid.Make(2, 1)),
		[]Entry{{Table: 0, Key: []byte("lost"), Value: []byte("v")}}))
	f.Close()
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-5], 0o644) // tear the tail

	st := replayLog(t, dir)
	if st.D != 1 {
		t.Fatalf("D=%d", st.D)
	}
	if _, ok := st.rows[0]["good"]; !ok {
		t.Fatal("durable txn lost")
	}
	if _, ok := st.rows[0]["lost"]; ok {
		t.Fatal("torn txn recovered")
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, m := attachedStore(t, 1, Config{Dir: dir, Compress: true})
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	for i := 0; i < 50; i++ {
		if err := w.Run(func(tx *core.Tx) error {
			return tx.Insert(tbl, []byte(fmt.Sprintf("key%04d", i)), bytes.Repeat([]byte("x"), 100))
		}); err != nil {
			t.Fatal(err)
		}
	}
	makeDurable(t, s, m, 1)
	m.Stop()
	s.Close()

	st := replayLog(t, dir)
	if st.applied < 50 {
		t.Fatalf("applied=%d", st.applied)
	}
	if n := len(st.rows[tbl.ID]); n != 50 {
		t.Fatalf("the log recovers %d keys", n)
	}
}
