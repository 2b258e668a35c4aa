package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"silo/internal/vfs"
)

// TestRingOverwrite fills a ring far past capacity and checks the dump
// keeps exactly the newest window, in order.
func TestRingOverwrite(t *testing.T) {
	rec := New(nil)
	r := rec.NewRing(1, 8)
	for i := 0; i < 100; i++ {
		r.Record(EvCommit, 0, 0, uint64(i), nil)
	}
	events := rec.Dump()
	if len(events) != 8 {
		t.Fatalf("dump kept %d events, want the ring's 8", len(events))
	}
	for i, e := range events {
		if want := uint64(92 + i); e.A != want {
			t.Fatalf("event %d: A=%d, want %d (newest window, oldest first)", i, e.A, want)
		}
	}
}

// TestEventRoundTrip packs and unpacks every field through the 4-word
// binary form.
func TestEventRoundTrip(t *testing.T) {
	e := Event{
		TS: 123456789, Kind: EvAbort, Src: 7, Aux: 2, Table: 0xDEADBEEF,
		A: 0x0102030405060708, Key: KeyPrefix([]byte("conflict-key")),
	}
	got := eventFromWords(e.words())
	if got != e {
		t.Fatalf("round trip mutated the event:\n in  %+v\n out %+v", e, got)
	}
}

// TestKeyPrefixAndHash pins the forensic key identity: the prefix is the
// first 8 bytes zero-padded, and the hash is FNV-1a over the whole key
// (so keys sharing a prefix still disambiguate).
func TestKeyPrefixAndHash(t *testing.T) {
	p := KeyPrefix([]byte("ab"))
	if want := [8]byte{'a', 'b'}; p != want {
		t.Fatalf("KeyPrefix = %v", p)
	}
	long1 := []byte("same-prefix-1")
	long2 := []byte("same-prefix-2")
	if KeyPrefix(long1) != KeyPrefix(long2) {
		t.Fatal("prefixes of same-prefixed keys differ")
	}
	if HashKey(long1) == HashKey(long2) {
		t.Fatal("hashes of distinct keys collide")
	}
}

// TestSpansEncodeDecode checks the span block codec: a full round trip,
// rejection of truncated blocks, and rejection of values that overflow
// time.Duration.
func TestSpansEncodeDecode(t *testing.T) {
	sp := Spans{
		Queue: 1, Exec: 2 * time.Millisecond, Validate: 3, Log: 4,
		Fsync: 5 * time.Second, Respond: 6, Retries: 9, TID: 0xABCDEF,
	}
	b := AppendSpans(nil, &sp)
	if len(b) != SpansEncodedLen {
		t.Fatalf("encoded %d bytes, want %d", len(b), SpansEncodedLen)
	}
	got, rest, ok := DecodeSpans(append(b, 0xFF))
	if !ok || len(rest) != 1 || got != sp {
		t.Fatalf("decode: ok=%v rest=%d got=%+v", ok, len(rest), got)
	}
	for cut := 0; cut < SpansEncodedLen; cut++ {
		if _, _, ok := DecodeSpans(b[:cut]); ok {
			t.Fatalf("decode accepted a %d-byte truncation", cut)
		}
	}
	over := make([]byte, SpansEncodedLen)
	over[0] = 0x80 // first duration word has the sign bit set
	if _, _, ok := DecodeSpans(over); ok {
		t.Fatal("decode accepted a duration overflow")
	}
}

// TestDumpMergesByTime registers two rings on a controllable clock and
// checks the merged dump is time-ordered with registration order
// breaking ties.
func TestDumpMergesByTime(t *testing.T) {
	clk := &stepClock{}
	rec := New(clk)
	a := rec.NewRing(0, 8)
	b := rec.NewRing(1, 8)
	clk.now = 10
	b.Record(EvCommit, 0, 0, 100, nil)
	clk.now = 5
	a.Record(EvCommit, 0, 0, 200, nil)
	clk.now = 10
	a.Record(EvCommit, 0, 0, 300, nil)
	ev := rec.Dump()
	// Time-ordered; at equal TS the first-registered ring (a) wins.
	if len(ev) != 3 || ev[0].A != 200 || ev[1].A != 300 || ev[2].A != 100 {
		t.Fatalf("merge order wrong: %+v", ev)
	}
}

type stepClock struct{ now time.Duration }

func (c *stepClock) Now() time.Duration { return c.now }

func (c *stepClock) Ticker(time.Duration, func()) vfs.Ticker { return nopTicker{} }

type nopTicker struct{}

func (nopTicker) Stop() {}
func (nopTicker) Kick() {}

// TestConcurrentRecordAndDump hammers single-writer rings and the shared
// ring while dumping and rendering concurrently — the seqlock read
// protocol must stay race-clean (this is the package's entry in the
// -race CI matrix) and every surviving event must be intact, never torn.
func TestConcurrentRecordAndDump(t *testing.T) {
	rec := New(nil)
	const writers = 4
	const ringEvents = 64
	stop := make(chan struct{})
	var wg, wrapped sync.WaitGroup
	for w := 0; w < writers; w++ {
		ring := rec.NewRing(uint8(w), ringEvents)
		wg.Add(1)
		wrapped.Add(1)
		go func(w int, r *Ring) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A=w<<32|i lets the reader verify events arrive whole.
				r.Record(EvCommit, uint16(w), uint32(w), uint64(w)<<32|uint64(i), []byte("key"))
				if i%17 == 0 {
					rec.RecordShared(EvDDL, DDLCreateTable, uint32(w), 0, []byte("t"))
				}
				if i == 2*ringEvents {
					wrapped.Done()
				}
			}
		}(w, ring)
	}
	// Every ring has wrapped before the first dump, and the writers keep
	// overwriting until the reader has taken its last one.
	wrapped.Wait()
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		events := rec.Dump()
		for _, e := range events {
			if e.Kind == EvCommit && e.A>>32 != uint64(e.Aux) {
				t.Errorf("torn event: src word %d inside A=%x, aux=%d", e.A>>32, e.A, e.Aux)
			}
		}
		sb.Reset()
		WriteText(&sb, events, nil)
		AppendBinary(nil, events)
	}
	close(stop)
	wg.Wait()
}

// TestTopConflicts folds a synthetic abort mix and checks ranking and
// the exclusion of abort reasons without a conflicting record.
func TestTopConflicts(t *testing.T) {
	rec := New(nil)
	r := rec.NewRing(0, 64)
	hot := []byte("hot-key")
	cold := []byte("cold-key")
	for i := 0; i < 5; i++ {
		r.Record(EvAbort, 0, 3, HashKey(hot), hot)
	}
	r.Record(EvAbort, 1, 3, HashKey(cold), cold)
	r.Record(EvAbort, 2, 0, 0, nil) // hook_poisoned: no conflict site
	top := TopConflicts(rec.Dump(), 10)
	if len(top) != 2 {
		t.Fatalf("got %d sites, want 2 (no-site aborts excluded)", len(top))
	}
	if top[0].Count != 5 || top[0].PrefixString() != "hot-key" {
		t.Fatalf("hottest site = %+v", top[0])
	}
	if got := TopConflicts(rec.Dump(), 1); len(got) != 1 {
		t.Fatalf("top-1 returned %d", len(got))
	}
}

// TestBinaryFingerprint pins the canonical encoding: 32 bytes per event,
// equal dumps encode equal bytes, different dumps differ.
func TestBinaryFingerprint(t *testing.T) {
	rec := New(nil)
	r := rec.NewRing(0, 8)
	r.Record(EvCommit, 1, 2, 3, []byte("k"))
	r.Record(EvFsync, 0, 0, 57, nil)
	d := rec.Dump()
	a := AppendBinary(nil, d)
	if len(a) != 32*len(d) {
		t.Fatalf("fingerprint %d bytes for %d events", len(a), len(d))
	}
	if !bytes.Equal(a, AppendBinary(nil, d)) {
		t.Fatal("same dump, different fingerprint")
	}
	r.Record(EvCommit, 0, 0, 4, nil)
	if bytes.Equal(a, AppendBinary(nil, rec.Dump())) {
		t.Fatal("different dumps share a fingerprint")
	}
}
