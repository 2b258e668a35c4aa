// Package epoch implements Silo's epoch subsystem (§4.1, §4.8, §4.9).
//
// Time is divided into short epochs identified by a global epoch number E. A
// designated thread advances E — on its tick, every Interval, or sooner on
// demand (AdvanceSoon), when someone is waiting for the open epoch to close;
// workers read E while committing. Both causes run the same Advance on the
// same thread, so the invariant below holds whatever the cause, and the tick
// stays the ceiling: an idle system advances exactly as often as before.
// Epoch boundaries are the only points at which the serial order is
// externally known, so epochs drive serializable recovery (group commit),
// RCU-style garbage collection, and consistent read-only snapshots.
//
// Each worker w keeps a local epoch e_w, refreshed to E at the start of every
// transaction, and a local snapshot epoch se_w. The manager maintains the
// paper's invariant E ≤ e_w + 1 for every active worker: the epoch-advancing
// thread delays its update while any worker lags. From the worker epochs the
// manager derives two reclamation horizons:
//
//   - tree reclamation epoch  = min e_w − 1: garbage registered at or below
//     it can no longer be reached by any worker.
//   - snapshot reclamation epoch = min se_w − 1: superseded record versions
//     at or below it can no longer be read by any snapshot transaction.
//
// Snapshot epochs advance more slowly than epochs: snap(e) = k·⌊e/k⌋, and
// the global snapshot epoch is SE = snap(E − k), so a snapshot is always a
// consistent, slightly stale prefix of the serial order — at most about
// k·Interval old, and fresher when demand closes epochs early.
package epoch

import (
	"sync"
	"sync/atomic"
	"time"

	"silo/internal/vfs"
)

// DefaultInterval is the paper's epoch advance period (40 ms).
const DefaultInterval = 40 * time.Millisecond

// DefaultSnapshotK is the paper's snapshot-epoch divisor: a new snapshot is
// taken every k epochs (k=25 gives one snapshot per second at 40 ms epochs,
// and more often — every 25 fsync passes or so — while demand closes epochs
// early).
const DefaultSnapshotK = 25

// pad prevents false sharing between per-worker slots on the assumption of
// 64-byte cache lines (the paper's machine; universal on amd64/arm64).
type pad [48]byte

// Slot holds one worker's epoch state. All fields are accessed atomically.
type Slot struct {
	// local is the worker's local epoch e_w. Valid only while active.
	local atomic.Uint64
	// snapLocal is the worker's local snapshot epoch se_w.
	snapLocal atomic.Uint64
	// active is nonzero while the worker is inside a transaction. Quiescent
	// workers do not constrain epoch advancement.
	active atomic.Uint64
	_      pad
}

// Manager owns the global epoch state and the per-worker slots.
type Manager struct {
	global     atomic.Uint64 // E
	snapGlobal atomic.Uint64 // SE
	treeRecl   atomic.Uint64 // min e_w − 1 (tree/record reclamation horizon)
	snapRecl   atomic.Uint64 // min se_w − 1 (snapshot version reclamation horizon)

	k        uint64
	interval time.Duration
	clock    vfs.Clock

	slots []*Slot

	// onAdvance is called after every successful Advance (OnAdvance).
	// want is the newest epoch AdvanceSoon was asked to close; the
	// advancing thread's run attributes its advance to demand when the
	// epoch it closes is wanted, and to the tick otherwise.
	onAdvance atomic.Pointer[func()]
	want      atomic.Uint64
	advances  [numCauses]atomic.Uint64

	mu      sync.Mutex
	ticker  vfs.Ticker
	running bool
}

// Causes of an advance by the advancing thread, for AdvancesBy.
const (
	CauseTick   = iota // the Interval tick
	CauseDemand        // an AdvanceSoon kick
	numCauses
)

// CauseNames are the label values of the causes, indexed like AdvancesBy.
var CauseNames = [numCauses]string{"tick", "demand"}

// Config parameterizes a Manager.
type Config struct {
	// Workers is the number of worker slots to allocate.
	Workers int
	// Interval is the epoch advance period — the longest an epoch stays
	// open, since AdvanceSoon may close it sooner; DefaultInterval if zero.
	Interval time.Duration
	// SnapshotK is the snapshot-epoch divisor; DefaultSnapshotK if zero.
	SnapshotK int
	// Clock drives the advancing thread started by Start; nil means real
	// time. The simulation harness substitutes a manually stepped clock so
	// epoch advancement becomes an explicit, replayable event.
	Clock vfs.Clock
}

// NewManager allocates a manager with cfg.Workers slots. The advancing
// thread is not started; call Start, or drive epochs manually with Advance
// (as the tests do).
func NewManager(cfg Config) *Manager {
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.SnapshotK == 0 {
		cfg.SnapshotK = DefaultSnapshotK
	}
	m := &Manager{
		k:        uint64(cfg.SnapshotK),
		interval: cfg.Interval,
		clock:    vfs.DefaultClock(cfg.Clock),
		slots:    make([]*Slot, cfg.Workers),
	}
	for i := range m.slots {
		m.slots[i] = &Slot{}
	}
	// E starts at 1 so that epoch 0 means "never" (SE starts at 0);
	// recovery restarts the system above the recovered epochs with
	// AdvanceTo.
	m.global.Store(1)
	m.recompute()
	return m
}

func saturatingSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// snap rounds e down to a snapshot boundary: k·⌊e/k⌋.
func (m *Manager) snap(e uint64) uint64 { return e - e%m.k }

// Snap exposes the snapshot boundary function for the commit protocol's
// version-preservation test (§4.9: preserve the old version iff
// snap(epoch(r.tid)) ≠ snap(E)).
func (m *Manager) Snap(e uint64) uint64 { return m.snap(e) }

// SnapshotK returns the snapshot-epoch divisor k.
func (m *Manager) SnapshotK() uint64 { return m.k }

// Global returns the current global epoch E. The load is a single atomic
// read, as required by the commit protocol's serialization point.
func (m *Manager) Global() uint64 { return m.global.Load() }

// SnapshotGlobal returns the current global snapshot epoch SE.
func (m *Manager) SnapshotGlobal() uint64 { return m.snapGlobal.Load() }

// TreeReclamation returns the current tree/record reclamation epoch.
// Garbage whose reclamation epoch is ≤ this value may be freed.
func (m *Manager) TreeReclamation() uint64 { return m.treeRecl.Load() }

// SnapshotReclamation returns the current snapshot reclamation epoch.
func (m *Manager) SnapshotReclamation() uint64 { return m.snapRecl.Load() }

// Slot returns worker w's slot.
func (m *Manager) Slot(w int) *Slot { return m.slots[w] }

// Workers returns the number of worker slots.
func (m *Manager) Workers() int { return len(m.slots) }

// Enter marks the worker active and refreshes its local epochs from the
// globals; it is called at the start of every transaction and returns the
// refreshed e_w. Long-running transactions should call Refresh periodically
// so the system keeps making progress.
func (s *Slot) Enter(m *Manager) uint64 {
	e := m.global.Load()
	s.local.Store(e)
	s.snapLocal.Store(m.snapGlobal.Load())
	s.active.Store(1)
	return e
}

// Refresh re-reads the global epoch into e_w without toggling activity.
func (s *Slot) Refresh(m *Manager) uint64 {
	e := m.global.Load()
	s.local.Store(e)
	return e
}

// Exit marks the worker quiescent (between requests). Quiescent workers do
// not hold back epoch advancement or reclamation.
func (s *Slot) Exit() { s.active.Store(0) }

// Local returns the worker's local epoch e_w.
func (s *Slot) Local() uint64 { return s.local.Load() }

// SnapshotLocal returns the worker's local snapshot epoch se_w.
func (s *Slot) SnapshotLocal() uint64 { return s.snapLocal.Load() }

// Active reports whether the worker is inside a transaction.
func (s *Slot) Active() bool { return s.active.Load() != 0 }

// Advance performs one epoch-advancing step: if every active worker has
// refreshed to the current epoch (e_w ≥ E, so that E+1 ≤ e_w + 1 holds after
// the bump), it increments E; otherwise it leaves E alone, honouring the
// invariant. Either way it recomputes SE and the reclamation horizons.
// It reports whether E advanced.
func (m *Manager) Advance() bool { return m.advance(nil) }

// advance is Advance, adding an advance to count, when not nil, before E
// moves: whoever sees the new epoch sees it counted.
func (m *Manager) advance(count *atomic.Uint64) bool {
	e := m.global.Load()
	advanced := false
	if m.minLocal(e) >= e {
		if count != nil {
			count.Add(1)
		}
		m.global.Store(e + 1)
		e++
		advanced = true
	}
	m.snapGlobal.Store(m.snap(saturatingSub(e, m.k)))
	m.recompute()
	if fn := m.onAdvance.Load(); advanced && fn != nil {
		(*fn)()
	}
	return advanced
}

// OnAdvance registers fn to run after every successful Advance, on the
// advancing goroutine, replacing any earlier registration. The durability
// layer uses it to wake its loggers the moment an epoch closes. fn must
// not block.
func (m *Manager) OnAdvance(fn func()) { m.onAdvance.Store(&fn) }

// AdvanceSoon asks the advancing thread to close epoch e, the open epoch
// the caller saw, now rather than at its next tick: it kicks the thread,
// whose run is the ordinary Advance — a worker still in the open epoch
// holds it open exactly as on a tick, and there is never a second
// advancer. The tick schedule is left alone. Only the first request for an
// epoch kicks, and none once e has closed (either would queue a run that
// closes the next epoch before anyone asked), unless a straggler refused
// the kicked run, in which case the next request kicks again. It is a
// no-op when epochs are driven manually or the thread is stopped.
func (m *Manager) AdvanceSoon(e uint64) {
	if m.want.Load() >= e {
		return // already asked for
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running && m.want.Load() < e && m.global.Load() == e {
		m.want.Store(e)
		m.ticker.Kick()
	}
}

// AdvancesBy returns how many times the advancing thread advanced E for
// cause (CauseTick or CauseDemand). An advance of an epoch AdvanceSoon
// asked to close counts as demand even if the tick fell due first.
func (m *Manager) AdvancesBy(cause int) uint64 { return m.advances[cause].Load() }

// step is one run of the advancing thread, on a tick or a kick.
func (m *Manager) step() {
	e := m.global.Load()
	cause := CauseTick
	if m.want.Load() >= e {
		cause = CauseDemand
	}
	if !m.advance(&m.advances[cause]) && cause == CauseDemand {
		m.want.CompareAndSwap(e, e-1) // refused: let the next request kick again
	}
}

// minLocal returns min over active workers of e_w, treating quiescent
// workers as having e_w = def (they will refresh to ≥ def on Enter, because
// Enter loads the global).
func (m *Manager) minLocal(def uint64) uint64 {
	min := def
	for _, s := range m.slots {
		if !s.Active() {
			continue
		}
		if l := s.local.Load(); l < min {
			min = l
		}
	}
	return min
}

func (m *Manager) minSnapLocal(def uint64) uint64 {
	min := def
	for _, s := range m.slots {
		if !s.Active() {
			continue
		}
		if l := s.snapLocal.Load(); l < min {
			min = l
		}
	}
	return min
}

// recompute refreshes the reclamation horizons from the worker epochs.
func (m *Manager) recompute() {
	e := m.global.Load()
	m.treeRecl.Store(saturatingSub(m.minLocal(e), 1))
	m.snapRecl.Store(saturatingSub(m.minSnapLocal(m.snapGlobal.Load()), 1))
}

// AdvanceTo raises the global epoch to at least e (used by recovery to
// restart the system strictly after the recovered durable epoch). It must
// be called before workers run.
func (m *Manager) AdvanceTo(e uint64) {
	for {
		cur := m.global.Load()
		if cur >= e {
			break
		}
		if m.global.CompareAndSwap(cur, e) {
			break
		}
	}
	m.snapGlobal.Store(m.snap(saturatingSub(m.global.Load(), m.k)))
	m.recompute()
}

// Start launches the epoch-advancing thread (a clock ticker calling
// Advance every interval and whenever AdvanceSoon kicks it). It is
// idempotent.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return
	}
	m.running = true
	m.ticker = m.clock.Ticker(m.interval, m.step)
}

// Stop halts the advancing thread and waits for an in-flight step to
// finish.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	m.running = false
	ticker := m.ticker
	m.mu.Unlock()
	ticker.Stop()
}
