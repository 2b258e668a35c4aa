// Package trace is the flight recorder: always-on, per-shard ring
// buffers of fixed-size binary events that survive until dumped, plus
// the span-timeline vocabulary for per-transaction tracing.
//
// Every event is 32 bytes — four 64-bit words — so a ring is a flat
// array the single writing goroutine fills with plain stores and
// publishes with one atomic cursor store. Readers (the admin endpoint,
// the STATS-adjacent dump, the sim oracle) copy the array and discard
// any entries the writer may have overwritten during the copy, the same
// validated-optimistic-read discipline as the engine's seqlock record
// protocol. The copy is the one racy read, and it is marked for the race
// detector (see internal/race); race builds run the same ring.
//
// Timestamps come from vfs.Clock.Now: monotonic process time in
// production, virtual time under internal/sim — which is what makes the
// recorded event sequence a deterministic, byte-comparable function of
// a seeded history.
package trace

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"silo/internal/vfs"
)

// Kind is the event type tag.
type Kind uint8

const (
	// EvCommit records one committed transaction: Aux = number of
	// writes installed, A = the commit TID.
	EvCommit Kind = 1 + iota
	// EvAbort records one aborted transaction: Aux = the OCC abort
	// reason (see AbortReasonNames), Table = the conflicting table id,
	// Key = the conflicting key's first 8 bytes, A = its full 64-bit
	// hash. Reasons without a conflicting record (hook_poisoned,
	// explicit, epoch_full) carry zero Table/Key/A; a doomed attempt
	// carries the first read-set entry that failed its validation (the
	// table alone for a node-set entry).
	EvAbort
	// EvFsync records one durable logger pass that reached stable
	// storage: Aux = logger id, A = bytes appended in the pass.
	EvFsync
	// EvCheckpoint records a checkpoint stage transition: Aux = the
	// stage (see CkptStage*), A = the checkpoint epoch.
	EvCheckpoint
	// EvDDL records a schema change: Aux = the DDL op (see DDL*),
	// Table = the table or index table id, Key = the name's first 8
	// bytes.
	EvDDL
	// EvConnOpen and EvConnClose record connection lifecycle on the
	// network front end: A = the connection's sequence number.
	EvConnOpen
	EvConnClose
)

var kindNames = [...]string{"?", "commit", "abort", "fsync", "checkpoint", "ddl", "conn_open", "conn_close"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// AbortReasonNames is the canonical OCC abort-reason vocabulary, indexed
// by the Aux field of EvAbort events. internal/core labels its abort
// counters with this array, so the flight recorder and the abort counters
// can never disagree on names.
var AbortReasonNames = [6]string{"read_validation", "node_validation", "hook_poisoned", "explicit", "epoch_full", "doomed"}

// Checkpoint stages for EvCheckpoint.Aux.
const (
	CkptStageBegin    = 1 // snapshot epoch pinned, partition writers starting
	CkptStageWritten  = 2 // all parts + manifest durable
	CkptStageTruncate = 3 // covered log segments truncated
)

var ckptStageNames = [...]string{"?", "begin", "written", "truncate"}

// CkptStageName renders an EvCheckpoint Aux value.
func CkptStageName(aux uint16) string {
	if int(aux) < len(ckptStageNames) {
		return ckptStageNames[aux]
	}
	return "?"
}

// DDL ops for EvDDL.Aux.
const (
	DDLCreateTable = 1
	DDLCreateIndex = 2
	DDLDropIndex   = 3
)

var ddlNames = [...]string{"?", "create_table", "create_index", "drop_index"}

// DDLName renders an EvDDL Aux value.
func DDLName(aux uint16) string {
	if int(aux) < len(ddlNames) {
		return ddlNames[aux]
	}
	return "?"
}

// Event is one flight-recorder entry. The zero Event is invalid (Kind 0).
type Event struct {
	TS    time.Duration // vfs.Clock.Now at record time
	Kind  Kind
	Src   uint8   // originating shard: worker id, logger id, or SrcShared
	Aux   uint16  // kind-specific small field
	Table uint32  // table id, when applicable
	A     uint64  // kind-specific word (TID, key hash, bytes, epoch, conn id)
	Key   [8]byte // key or name prefix, zero-padded
}

// SrcShared marks events recorded through the shared low-rate ring
// (DDL, checkpoint stages, connection lifecycle).
const SrcShared = 0xFF

// words packs an event into its four-word wire form.
func (e *Event) words() (w0, w1, w2, w3 uint64) {
	w0 = uint64(e.TS)
	w1 = uint64(e.Kind)<<56 | uint64(e.Src)<<48 | uint64(e.Aux)<<32 | uint64(e.Table)
	w2 = e.A
	w3 = binary.BigEndian.Uint64(e.Key[:])
	return
}

func eventFromWords(w0, w1, w2, w3 uint64) Event {
	var e Event
	e.TS = time.Duration(w0)
	e.Kind = Kind(w1 >> 56)
	e.Src = uint8(w1 >> 48)
	e.Aux = uint16(w1 >> 32)
	e.Table = uint32(w1)
	e.A = w2
	binary.BigEndian.PutUint64(e.Key[:], w3)
	return e
}

// KeyPrefix copies key's first 8 bytes into an event prefix.
func KeyPrefix(key []byte) (p [8]byte) {
	copy(p[:], key)
	return
}

// HashKey is the 64-bit FNV-1a hash of key, the identity under which
// conflicting keys aggregate (the 8-byte prefix is for human eyes).
func HashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// DefaultRingEvents is the per-shard ring capacity (32 KiB per shard at
// 32 bytes per event). Rings overwrite oldest-first; the recorder is a
// bounded black box, not a log.
const DefaultRingEvents = 1024

// Ring is a single-writer event ring. Exactly one goroutine may call
// Record; any goroutine may dump through the owning Recorder.
type Ring struct {
	rec  *Recorder
	src  uint8
	mask uint64
	seq  atomic.Uint64
	buf  [][4]uint64
}

// Record appends one event, stamping it with the recorder's clock. A
// nil ring is a disabled recorder and records nothing, so call sites
// need no flag checks beyond the pointer test.
func (r *Ring) Record(kind Kind, aux uint16, table uint32, a uint64, key []byte) {
	if r == nil {
		return
	}
	e := Event{TS: r.rec.clock.Now(), Kind: kind, Src: r.src, Aux: aux, Table: table, A: a, Key: KeyPrefix(key)}
	s := r.seq.Load()
	w := &r.buf[s&r.mask]
	w[0], w[1], w[2], w[3] = e.words()
	r.seq.Store(s + 1)
}

// snapshot copies the ring's current contents in record order, dropping
// any entries the writer overwrote during the copy: a validated read.
//
//go:norace
func (r *Ring) snapshot() []Event {
	size := uint64(len(r.buf))
	end := r.seq.Load()
	start := uint64(0)
	if end > size {
		start = end - size
	}
	tmp := make([][4]uint64, 0, end-start)
	for i := start; i < end; i++ {
		tmp = append(tmp, r.buf[i&r.mask])
	}
	// Entries below the writer's new overwrite horizon may be torn; the
	// horizon only moves forward, so everything at or above it is intact.
	end2 := r.seq.Load()
	drop := uint64(0)
	if end2 > size && end2-size > start {
		drop = end2 - size - start
		if drop > uint64(len(tmp)) {
			drop = uint64(len(tmp))
		}
	}
	out := make([]Event, 0, uint64(len(tmp))-drop)
	for _, w := range tmp[drop:] {
		out = append(out, eventFromWords(w[0], w[1], w[2], w[3]))
	}
	return out
}

// Recorder owns the flight recorder's rings. A nil *Recorder is fully
// disabled: NewRing returns a nil ring and Shared returns nil, both of
// which Record into the void.
type Recorder struct {
	clock vfs.Clock

	mu     sync.Mutex
	rings  []*Ring
	shared *Ring
	shmu   sync.Mutex // serializes the shared ring's many writers
}

// New builds a recorder on clock (nil = the wall clock).
func New(clock vfs.Clock) *Recorder {
	rec := &Recorder{clock: vfs.DefaultClock(clock)}
	rec.shared = rec.NewRing(SrcShared, DefaultRingEvents)
	return rec
}

// Now reads the recorder's clock.
func (rec *Recorder) Now() time.Duration {
	if rec == nil {
		return 0
	}
	return rec.clock.Now()
}

// NewRing registers a single-writer ring of n events (rounded up to a
// power of two) tagged with shard id src.
func (rec *Recorder) NewRing(src uint8, n int) *Ring {
	if rec == nil {
		return nil
	}
	size := 1
	for size < n {
		size <<= 1
	}
	r := &Ring{rec: rec, src: src, mask: uint64(size - 1), buf: make([][4]uint64, size)}
	rec.mu.Lock()
	rec.rings = append(rec.rings, r)
	rec.mu.Unlock()
	return r
}

// RecordShared appends a low-rate event (DDL, checkpoint stage,
// connection lifecycle) through the mutex-guarded shared ring.
func (rec *Recorder) RecordShared(kind Kind, aux uint16, table uint32, a uint64, key []byte) {
	if rec == nil {
		return
	}
	rec.shmu.Lock()
	rec.shared.Record(kind, aux, table, a, key)
	rec.shmu.Unlock()
}

// Dump merges every ring's surviving events into one timeline, ordered
// by timestamp with ties broken by ring registration order (stable
// within a ring). Under the sim clock that order is a pure function of
// the seeded history, which is what the replay-determinism oracle
// fingerprints.
func (rec *Recorder) Dump() []Event {
	if rec == nil {
		return nil
	}
	rec.mu.Lock()
	rings := make([]*Ring, len(rec.rings))
	copy(rings, rec.rings)
	rec.mu.Unlock()

	type tagged struct {
		e    Event
		ring int
	}
	var all []tagged
	for ri, r := range rings {
		for _, e := range r.snapshot() {
			all = append(all, tagged{e, ri})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].e.TS != all[j].e.TS {
			return all[i].e.TS < all[j].e.TS
		}
		return all[i].ring < all[j].ring
	})
	out := make([]Event, len(all))
	for i := range all {
		out[i] = all[i].e
	}
	return out
}

// AppendBinary appends the canonical 32-byte-per-event encoding of
// events to dst: four big-endian words in dump order. This is the form
// the sim oracle compares byte for byte across replays.
func AppendBinary(dst []byte, events []Event) []byte {
	for i := range events {
		w0, w1, w2, w3 := events[i].words()
		dst = binary.BigEndian.AppendUint64(dst, w0)
		dst = binary.BigEndian.AppendUint64(dst, w1)
		dst = binary.BigEndian.AppendUint64(dst, w2)
		dst = binary.BigEndian.AppendUint64(dst, w3)
	}
	return dst
}
