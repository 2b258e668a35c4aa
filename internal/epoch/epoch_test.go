package epoch

import (
	"sync"
	"testing"
	"time"

	"silo/internal/vfs"
)

func manual(workers int, k int) *Manager {
	return NewManager(Config{Workers: workers, SnapshotK: k, Interval: time.Hour})
}

func TestInitialState(t *testing.T) {
	m := manual(2, 25)
	if m.Global() != 1 {
		t.Fatalf("E=%d", m.Global())
	}
	if m.SnapshotGlobal() != 0 {
		t.Fatalf("SE=%d", m.SnapshotGlobal())
	}
}

func TestAdvanceWithQuiescentWorkers(t *testing.T) {
	m := manual(3, 25)
	for i := 0; i < 10; i++ {
		if !m.Advance() {
			t.Fatalf("advance %d blocked with all workers quiescent", i)
		}
	}
	if m.Global() != 11 {
		t.Fatalf("E=%d", m.Global())
	}
}

func TestInvariantEWithLaggingWorker(t *testing.T) {
	// E ≤ e_w + 1 for all active workers (§4.1): a worker that has not
	// refreshed past its entry epoch blocks the second advance.
	m := manual(2, 25)
	s := m.Slot(0)
	e := s.Enter(m) // e_w = 1
	if e != 1 {
		t.Fatalf("entered at %d", e)
	}
	if !m.Advance() { // E: 1 → 2 is fine (2 ≤ 1+1)
		t.Fatal("first advance blocked")
	}
	if m.Advance() { // E: 2 → 3 would violate 3 ≤ 1+1
		t.Fatal("advance violated E ≤ e_w + 1")
	}
	if m.Global() != 2 {
		t.Fatalf("E=%d", m.Global())
	}
	s.Refresh(m) // e_w = 2
	if !m.Advance() {
		t.Fatal("advance blocked after refresh")
	}
	s.Exit()
	for i := 0; i < 5; i++ {
		if !m.Advance() {
			t.Fatal("quiescent worker blocked advance")
		}
	}
}

func TestSnapshotEpochLags(t *testing.T) {
	k := 4
	m := manual(1, k)
	for i := 0; i < 20; i++ {
		m.Advance()
		e := m.Global()
		want := uint64(0)
		if e > uint64(k) {
			want = (e - uint64(k)) / uint64(k) * uint64(k)
		}
		if se := m.SnapshotGlobal(); se != want {
			t.Fatalf("E=%d SE=%d want %d", e, se, want)
		}
	}
}

func TestSnapBoundary(t *testing.T) {
	m := manual(1, 25)
	for _, c := range []struct{ e, want uint64 }{
		{0, 0}, {1, 0}, {24, 0}, {25, 25}, {26, 25}, {49, 25}, {50, 50},
	} {
		if got := m.Snap(c.e); got != c.want {
			t.Errorf("snap(%d)=%d want %d", c.e, got, c.want)
		}
	}
}

func TestReclamationHorizons(t *testing.T) {
	m := manual(2, 2)
	s0, s1 := m.Slot(0), m.Slot(1)
	for i := 0; i < 10; i++ {
		m.Advance()
	}
	e := m.Global()
	// No active workers: tree reclamation = E − 1.
	if got := m.TreeReclamation(); got != e-1 {
		t.Fatalf("tree reclamation %d want %d", got, e-1)
	}
	// An active worker at an older epoch pins the horizon.
	s0.Enter(m)
	s1.Enter(m)
	m.Advance()
	m.Advance() // second one blocks, but horizons recompute
	if got := m.TreeReclamation(); got != e-1 {
		t.Fatalf("tree reclamation %d want %d (pinned by active workers)", got, e-1)
	}
	s0.Exit()
	s1.Exit()
	m.Advance()
	if got := m.TreeReclamation(); got <= e-1 {
		t.Fatalf("tree reclamation did not advance after exit: %d", got)
	}
}

func TestSnapshotReclamation(t *testing.T) {
	m := manual(1, 2)
	s := m.Slot(0)
	for i := 0; i < 12; i++ {
		m.Advance()
	}
	se := m.SnapshotGlobal()
	if se == 0 {
		t.Fatal("SE still 0")
	}
	// Quiescent: snapshot reclamation = SE − 1.
	if got := m.SnapshotReclamation(); got != se-1 {
		t.Fatalf("snap reclamation %d want %d", got, se-1)
	}
	// An active snapshot reader pins it.
	s.Enter(m)
	if s.SnapshotLocal() != se {
		t.Fatalf("se_w=%d want %d", s.SnapshotLocal(), se)
	}
	for i := 0; i < 6; i++ {
		m.Advance()
		s.Refresh(m) // keeps e_w fresh but se_w pinned at entry value
	}
	if got := m.SnapshotReclamation(); got != se-1 {
		t.Fatalf("snap reclamation %d want %d while reader active", got, se-1)
	}
	s.Exit()
	m.Advance()
	if got := m.SnapshotReclamation(); got <= se-1 {
		t.Fatalf("snap reclamation stuck at %d", got)
	}
}

func TestAdvanceTo(t *testing.T) {
	m := manual(1, 25)
	m.AdvanceTo(100)
	if m.Global() != 100 {
		t.Fatalf("E=%d", m.Global())
	}
	m.AdvanceTo(50) // must not go backwards
	if m.Global() != 100 {
		t.Fatalf("E=%d after lower AdvanceTo", m.Global())
	}
}

func TestBackgroundAdvancer(t *testing.T) {
	m := NewManager(Config{Workers: 1, Interval: time.Millisecond})
	reached := make(chan struct{})
	var once sync.Once
	m.OnAdvance(func() {
		if m.Global() >= 5 {
			once.Do(func() { close(reached) })
		}
	})
	m.Start()
	defer m.Stop()
	select {
	case <-reached:
	case <-time.After(2 * time.Second):
		t.Fatalf("epoch did not advance in background: E = %d", m.Global())
	}
	m.Stop() // idempotent with deferred Stop
}

// heldClock hands its ticker callback to the test, which runs it by hand,
// and counts kicks instead of serving them.
type heldClock struct {
	fn    func()
	kicks int
}

func (c *heldClock) Now() time.Duration { return 0 }
func (c *heldClock) Ticker(_ time.Duration, fn func()) vfs.Ticker {
	c.fn = fn
	return c
}
func (c *heldClock) Stop() {}
func (c *heldClock) Kick() { c.kicks++ }

// TestAdvanceSoon: a demand kick reaches the advancing thread only while
// it runs, only once per epoch and only while that epoch is open, the run
// it causes is the ordinary Advance (a straggler refuses it exactly as it
// refuses a tick, and the next request kicks again), every successful
// advance calls the OnAdvance hook, and AdvancesBy attributes each advance
// to its cause.
func TestAdvanceSoon(t *testing.T) {
	clk := &heldClock{}
	m := NewManager(Config{Workers: 1, Interval: time.Hour, Clock: clk})
	hooks := 0
	m.OnAdvance(func() { hooks++ })

	m.AdvanceSoon(m.Global()) // manual epochs: nothing to kick
	if clk.kicks != 0 || m.Global() != 1 {
		t.Fatalf("AdvanceSoon before Start: %d kicks, E=%d", clk.kicks, m.Global())
	}
	m.Start()
	m.AdvanceSoon(m.Global())
	m.AdvanceSoon(m.Global()) // a second waiter of the same epoch
	if clk.kicks != 1 {
		t.Fatalf("two AdvanceSoon calls for one epoch kicked %d times, want 1", clk.kicks)
	}
	clk.fn() // the kicked run
	if m.Global() != 2 || m.AdvancesBy(CauseDemand) != 1 || m.AdvancesBy(CauseTick) != 0 || hooks != 1 {
		t.Fatalf("after a kicked run: E=%d demand=%d tick=%d hooks=%d",
			m.Global(), m.AdvancesBy(CauseDemand), m.AdvancesBy(CauseTick), hooks)
	}
	clk.fn() // a tick
	if m.Global() != 3 || m.AdvancesBy(CauseTick) != 1 || hooks != 2 {
		t.Fatalf("after a tick: E=%d tick=%d hooks=%d", m.Global(), m.AdvancesBy(CauseTick), hooks)
	}
	m.AdvanceSoon(2) // a waiter of an epoch that has closed since
	if clk.kicks != 1 {
		t.Fatalf("AdvanceSoon of a closed epoch kicked (%d kicks, want 1)", clk.kicks)
	}

	// A straggler holds E ≤ e_w + 1 against demand as against the tick.
	s := m.Slot(0)
	ew := s.Enter(m)
	for i := 0; i < 3; i++ {
		m.AdvanceSoon(m.Global())
		clk.fn()
	}
	if m.Global() != ew+1 || m.AdvancesBy(CauseDemand) != 2 || hooks != 3 {
		t.Fatalf("with a straggler at e_w=%d: E=%d demand=%d hooks=%d", ew, m.Global(), m.AdvancesBy(CauseDemand), hooks)
	}
	s.Exit()

	m.Stop()
	m.AdvanceSoon(m.Global())
	if clk.kicks != 4 {
		t.Fatalf("AdvanceSoon after Stop kicked (%d kicks, want 4)", clk.kicks)
	}
}

func TestConcurrentEnterExit(t *testing.T) {
	m := NewManager(Config{Workers: 4, Interval: time.Hour})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := m.Slot(w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := s.Enter(m)
				if g := m.Global(); g < e {
					t.Errorf("global %d < entered %d", g, e)
				}
				s.Exit()
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		m.Advance()
	}
	close(stop)
	wg.Wait()
	// Invariant: E ≤ e_w+1 was enforced throughout (no assertion possible
	// post-hoc beyond absence of t.Errorf above; advancing 200 times with
	// workers churning exercises the race).
}
