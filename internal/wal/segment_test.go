package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silo/internal/core"
	"silo/internal/tid"
)

func TestListLogFilesNamingAndOrder(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"log.0", "log.0.2", "log.0.10", "log.1", "log.x", "log.0.abc", "log", "checkpoint.5"} {
		os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644)
	}
	infos, err := ListLogFiles(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, fi := range infos {
		got = append(got, fmt.Sprintf("%d.%d", fi.Logger, fi.Seq))
	}
	want := []string{"0.0", "0.2", "0.10", "1.0"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// TestDurableBoundGroupsByLogger: a logger's old segments carry stale
// durable epochs; the bound must take each logger's maximum before the
// cross-logger minimum. (A flat minimum over files would under-report D
// and recovery would drop durable transactions.)
func TestDurableBoundGroupsByLogger(t *testing.T) {
	infos := []LogFileInfo{
		{Logger: 0, Seq: 0}, {Logger: 0, Seq: 1}, {Logger: 1, Seq: 0},
	}
	durables := []uint64{5, 9, 7}
	if d := DurableBound(infos, durables); d != 7 {
		t.Fatalf("D=%d, want 7 (min over loggers of max over segments)", d)
	}
}

// TestSegmentRotationRecovery drives a real logger past its segment size,
// then checks the segment chain recovers completely and that live
// truncation refuses to touch open segments.
func TestSegmentRotationRecovery(t *testing.T) {
	const n = 100
	val := make([]byte, 64)
	// load writes n rows with a pass after every fourth, so they span
	// several epochs and — at 1 KiB segments — several segments.
	load := func(dir string) (*core.Store, *Manager) {
		s, m := attachedStore(t, 1, Config{Dir: dir, SegmentBytes: 1 << 10})
		tbl := s.CreateTable("t")
		for i := 0; i < n; i++ {
			if err := s.Worker(0).Run(func(tx *core.Tx) error {
				return tx.Insert(tbl, []byte(fmt.Sprintf("k%04d", i)), val)
			}); err != nil {
				t.Fatal(err)
			}
			if i%4 == 3 {
				pass(s, m)
			}
		}
		makeDurable(t, s, m, 1)
		return s, m
	}
	dir := t.TempDir()
	s, m := load(dir)

	// Stop the loggers so segment counts are stable; TruncateCovered still
	// treats each logger's newest segment as open and spares it.
	m.Stop()

	infos, err := ListLogFiles(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) < 2 {
		t.Fatalf("no rotation: %d segments", len(infos))
	}

	// Truncation with an absurdly high epoch: every closed segment is
	// "covered", but the open segment must survive.
	removed, err := m.TruncateCovered(^uint64(0) >> 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != len(infos)-1 {
		t.Fatalf("removed %d of %d segments, want all but the open one", len(removed), len(infos))
	}
	left, _ := ListLogFiles(nil, dir)
	if len(left) != 1 {
		t.Fatalf("%d segments left, want 1", len(left))
	}
	// The open segment keeps receiving durable frames, so D recomputed
	// from it alone must not regress below the pre-truncation bound.
	_, durable, _, err := ParseLogFile(nil, left[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if durable == 0 {
		t.Fatal("open segment carries no durable frame after truncation")
	}
	s.Close()

	// Full-chain recovery (fresh dir copy semantics: rerun without the
	// truncation) is covered by the equivalence tests; here check the
	// rotated-but-untruncated case recovers everything.
	dir2 := t.TempDir()
	s2, m2 := load(dir2)
	m2.Stop()
	s2.Close()

	s3 := core.NewStore(core.DefaultOptions(1))
	defer s3.Close()
	tbl3 := s3.CreateTable("t")
	res, err := Recover(s3, dir2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TxnsApplied == 0 {
		t.Fatal("nothing recovered")
	}
	if got := tbl3.Tree.Len(); got != n {
		t.Fatalf("recovered %d keys, want %d", got, n)
	}
}

// TestCheckpointTriggeredRotation pins the tightened log-space bound:
// RequestRotate closes a data-bearing open segment at the logger's next
// durable pass even when size-based rotation is disabled, so a checkpoint
// covering that data can truncate it immediately — the on-disk log after
// each checkpoint+rotate+truncate cycle is bounded by one checkpoint
// interval of writes, not by the open segment's unbounded growth. Idle
// segments (no buffer frames) must not rotate, so a request over an idle
// log cannot churn out empty segments.
func TestCheckpointTriggeredRotation(t *testing.T) {
	dir := t.TempDir()
	// Nothing here runs on the real clock: epochs advance and logger passes
	// run when the test says so, on its own goroutine. With real tickers
	// the test could list the next segment's file before the logger had
	// published its sequence number, and TruncateCovered rightly refused
	// to touch a segment it still had to consider open.
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true
	s := core.NewStore(opts)
	defer s.Close()
	// SegmentBytes 0: size-based rotation off — only forced rotation can
	// close a segment.
	m, err := Attach(s, Config{Dir: dir, Clock: heldClock{}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := s.CreateTable("t")
	m.Start()
	defer m.Stop()
	w := s.Worker(0)

	// durablePass closes the current epoch and runs every logger once: the
	// pass that publishes the closed epoch and, after it, rotates.
	durablePass := func() uint64 {
		t.Helper()
		closed := s.Epochs().Global()
		s.Epochs().AdvanceTo(closed + 1)
		for _, lg := range m.loggers {
			lg.iterate()
		}
		if d := m.DurableEpoch(); d != closed {
			t.Fatalf("durable epoch %d after the pass that closes %d", d, closed)
		}
		return closed
	}
	write := func(k string) uint64 {
		t.Helper()
		if err := w.Run(func(tx *core.Tx) error {
			return tx.Insert(tbl, []byte(k), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
		m.WorkerLog(0).Flush()
		return durablePass()
	}
	segments := func() int {
		t.Helper()
		infos, err := ListLogFiles(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(infos)
	}

	covered := write("a")
	if n := segments(); n != 1 {
		t.Fatalf("%d segments before any rotation, want 1", n)
	}

	// Force the rotation a checkpoint at epoch > covered would request.
	m.RequestRotate()
	durablePass()
	if n := segments(); n != 2 {
		t.Fatalf("%d segments after the forced rotation's durable pass, want 2", n)
	}

	// The closed segment is now truncatable by a checkpoint covering its
	// epochs — the tightened bound: pre-checkpoint data no longer rides in
	// the open segment.
	removed, err := m.TruncateCovered(covered + 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 {
		t.Fatalf("truncated %d segments, want 1 (%v)", len(removed), removed)
	}

	// A rotation request over an idle log (no buffer frames in the open
	// segment) must not create empty segments.
	before := segments()
	m.RequestRotate()
	durablePass()
	if n := segments(); n != before {
		t.Fatalf("idle rotation churned segments: %d -> %d", before, n)
	}

	// New data after the idle request still rotates (the request is
	// sticky), and the log keeps recovering across the whole chain.
	write("b")
	if n := segments(); n != before+1 {
		t.Fatalf("sticky rotation request not honoured after new data: %d -> %d segments", before, n)
	}
	s2 := core.NewStore(core.DefaultOptions(1))
	defer s2.Close()
	s2.CreateTable("t")
	res, err := Recover(s2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.TxnsApplied != 1 {
		t.Fatalf("recovered %d txns after truncation, want 1 (only the post-checkpoint write)", res.TxnsApplied)
	}
}

// TestSegmentDurableIsMaxFrame pins the rule for a segment's durable
// epoch: the largest durable frame, not the last. Earlier builds started a
// reopened directory's loggers before recovering it, so their fresh epoch
// counter wrote d = 1, 2, … after the large values of the run being
// recovered; those directories, and crash images of them, must still
// recover in full, where reading the last frame would make D = 1 and
// discard the whole log as not durable.
func TestSegmentDurableIsMaxFrame(t *testing.T) {
	var buf bytes.Buffer
	writeBufferFrame(&buf, frameBuffer, appendTxn(nil, uint64(tid.Make(99, 1)), []Entry{{Table: 0, Key: []byte("k"), Value: []byte("v")}}))
	writeDurableFrame(&buf, 100)
	writeDurableFrame(&buf, 1)
	if seg := ScanSegment(buf.Bytes()); seg.Durable != 100 {
		t.Fatalf("segment …D100, D1 has durable epoch %d, want 100", seg.Durable)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, SegmentName(0, 0))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, durable, _, err := ParseLogFile(nil, path); err != nil || durable != 100 {
		t.Fatalf("ParseLogFile: durable %d err %v, want 100", durable, err)
	}
	s := core.NewStore(core.DefaultOptions(1))
	defer s.Close()
	s.CreateTable("t")
	res, err := Recover(s, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.DurableEpoch != 100 || res.TxnsApplied != 1 || res.TxnsSkipped != 0 {
		t.Fatalf("recovered D=%d applied=%d skipped=%d, want D=100 with the epoch-99 transaction applied", res.DurableEpoch, res.TxnsApplied, res.TxnsSkipped)
	}
}

// TestTruncateLogs pins the truncation rule (removeCovered) from both of its
// callers — offline TruncateLogs and live Manager.TruncateCovered — over the
// same hand-built directory: a checkpoint at epoch CE covers a segment when a
// newer one of its logger exists and none of its transactions has epoch ≥ CE
// — which must be known: a segment that cannot be read to its end is kept and
// named in the error, while the rest are dealt with as usual.
func TestTruncateLogs(t *testing.T) {
	const ce = 5
	// What follows a segment's transactions: a frame with a valid checksum
	// that the walk cannot get past. The transactions behind it are unseen,
	// so "no epoch ≥ CE seen" proves nothing.
	payload := appendTxn(nil, uint64(tid.Make(9, 1)), []Entry{{Table: 0, Key: []byte("unseen"), Value: []byte("v")}})
	type frame struct {
		kind    byte
		payload []byte
	}
	// Logger 0's segments, oldest first; the last is the one a manager
	// attached to the directory has open.
	cases := []struct {
		name       string
		epochs     []uint64 // one transaction each
		undecoded  *frame
		covered    bool
		unreadable bool
	}{
		{name: "every epoch below CE", epochs: []uint64{1, 2, 4}, covered: true},
		{name: "straddling CE", epochs: []uint64{2, 9}},
		{name: "a transaction at CE itself", epochs: []uint64{3, 5}},
		{name: "durable frames only", covered: true},
		// How every segment of a compressed log looked to a reader that was
		// not told so, before deflated frames had their own kind.
		{name: "a buffer frame holding deflate output", epochs: []uint64{1}, undecoded: &frame{frameBuffer, deflate(payload)}, unreadable: true},
		{name: "a deflated frame that does not inflate", undecoded: &frame{frameDeflated, bytes.Repeat([]byte{0xff}, 16)}, unreadable: true},
		{name: "every epoch below CE, but the logger's newest", epochs: []uint64{1}},
	}
	segment := func(epochs []uint64, undecoded *frame) []byte {
		var buf bytes.Buffer
		for i, e := range epochs {
			writeBufferFrame(&buf, frameBuffer, appendTxn(nil, uint64(tid.Make(e, uint64(i+1))),
				[]Entry{{Table: 0, Key: []byte{byte(i + 1)}, Value: []byte("v")}}))
		}
		if undecoded != nil {
			writeBufferFrame(&buf, undecoded.kind, undecoded.payload)
		}
		writeDurableFrame(&buf, 9)
		return buf.Bytes()
	}
	build := func(t *testing.T) string {
		dir := t.TempDir()
		for seq, c := range cases {
			if err := os.WriteFile(filepath.Join(dir, SegmentName(0, uint64(seq))), segment(c.epochs, c.undecoded), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Logger 1's only segment: its newest, and to a manager that runs
		// one logger, someone else's.
		if err := os.WriteFile(filepath.Join(dir, SegmentName(1, 0)), segment([]uint64{1}, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	// namesUnreadable: the error is there because of the unreadable segments,
	// and says which they are.
	namesUnreadable := func(t *testing.T, dir string, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("no error although segments could not be read to their end")
		}
		for seq, c := range cases {
			if named := strings.Contains(err.Error(), filepath.Join(dir, SegmentName(0, uint64(seq)))+":"); named != c.unreadable {
				t.Errorf("segment with %s: named in the error = %v, want %v (%v)", c.name, named, c.unreadable, err)
			}
		}
	}
	check := func(t *testing.T, dir string, removed []string, err error) {
		t.Helper()
		namesUnreadable(t, dir, err)
		want := 0
		for seq, c := range cases {
			_, statErr := os.Stat(filepath.Join(dir, SegmentName(0, uint64(seq))))
			if gone := os.IsNotExist(statErr); gone != c.covered {
				t.Errorf("segment with %s: removed=%v, want %v", c.name, gone, c.covered)
			}
			if c.covered {
				want++
			}
		}
		if len(removed) != want {
			t.Errorf("removed %v, want %d segments", removed, want)
		}
		if _, err := os.Stat(filepath.Join(dir, SegmentName(1, 0))); err != nil {
			t.Errorf("logger 1's only segment: %v", err)
		}
	}
	t.Run("TruncateLogs", func(t *testing.T) {
		dir := build(t)
		removed, err := TruncateLogs(dir, ce)
		check(t, dir, removed, err)
	})
	t.Run("TruncateCovered", func(t *testing.T) {
		dir := build(t)
		opts := core.DefaultOptions(1)
		opts.ManualEpochs = true
		s := core.NewStore(opts)
		defer s.Close()
		m, err := Attach(s, Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Stop()
		removed, err := m.TruncateCovered(ce)
		check(t, dir, removed, err)
		// What a segment held is remembered, not what was decided about it:
		// a later checkpoint covers the segments this one could not — except
		// those it could not read, which no epoch covers.
		removed, err = m.TruncateCovered(10)
		if len(removed) != 2 {
			t.Errorf("checkpoint at 10 removed %v (err %v), want the two segments ending at 9 and 5", removed, err)
		}
		namesUnreadable(t, dir, err)
	})
}
