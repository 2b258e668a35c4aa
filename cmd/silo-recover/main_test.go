package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"silo"
	"silo/internal/tid"
	"silo/internal/wal"
)

// writeLog fills dir through silo.Open: two workers commit 300 rows, one
// per transaction, to two loggers that rotate 2 KiB segments. It returns
// the segments in (logger, seq) order.
func writeLog(t *testing.T, dir string) []wal.LogFileInfo {
	t.Helper()
	db, err := silo.Open(silo.Options{Workers: 2, EpochInterval: time.Millisecond,
		Durability: &silo.DurabilityOptions{Dir: dir, Loggers: 2, SegmentBytes: 2 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("t")
	for i := 0; i < 300; i++ {
		if err := db.Run(i%2, func(tx *silo.Tx) error {
			return tx.Insert(tbl, []byte(fmt.Sprintf("k%04d", i)), make([]byte, 40))
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	infos, err := wal.ListLogFiles(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	rotated := map[int]bool{}
	for _, fi := range infos {
		rotated[fi.Logger] = rotated[fi.Logger] || fi.Seq > 0
	}
	if len(rotated) != 2 || !rotated[0] && !rotated[1] {
		t.Fatalf("segments %+v: want two loggers and a rotation", infos)
	}
	return infos
}

// run is silo-recover -dir dir, with -verbose if asked: its output, or the
// test fails.
func run(t *testing.T, dir string, verbose bool) string {
	t.Helper()
	var out bytes.Buffer
	if err := summarize(&out, dir, verbose); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// appendFrame appends a buffer frame holding payload to the file at path,
// as a logger writes one: 'B', the payload's length and CRC-32, the
// payload — or only its first keep bytes, a torn write. It returns the
// frame's offset in the file.
func appendFrame(t *testing.T, path string, payload []byte, keep int) int64 {
	t.Helper()
	frame := []byte{'B'}
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, _ := f.Stat()
	if _, err := f.Write(frame[:min(keep, len(frame))]); err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// txnRecord is a logged transaction's header: its TID and write count.
func txnRecord(at uint64, writes uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, at), writes)
}

var durableLine = regexp.MustCompile(`(?m)^global durable epoch D=(\d+); (\d+) txns, `)

// TestSummaryListsSegmentsThenD: the summary is one line per segment, in
// (logger, seq) order, then the global durable epoch D with the log's
// totals; -verbose adds one tid( line per transaction counted.
func TestSummaryListsSegmentsThenD(t *testing.T) {
	dir := t.TempDir()
	infos := writeLog(t, dir)
	lines := strings.Split(strings.TrimSuffix(run(t, dir, false), "\n"), "\n")
	if len(lines) != len(infos)+1 {
		t.Fatalf("%d lines for %d segments:\n%s", len(lines), len(infos), strings.Join(lines, "\n"))
	}
	sum := 0
	for i, fi := range infos {
		var n int
		prefix := fmt.Sprintf("%s: logger %d seq %d: ", fi.Path, fi.Logger, fi.Seq)
		if !strings.HasPrefix(lines[i], prefix) {
			t.Fatalf("line %d is %q, want it to start %q", i, lines[i], prefix)
		}
		if _, err := fmt.Sscanf(strings.TrimPrefix(lines[i], prefix), "%d txns", &n); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		sum += n
	}
	m := durableLine.FindStringSubmatch(lines[len(infos)])
	if m == nil {
		t.Fatalf("last line %q is not the durable-epoch line", lines[len(infos)])
	}
	if total, _ := strconv.Atoi(m[2]); total != sum || total < 300 {
		t.Fatalf("D line counts %d txns, the segment lines %d, 300 rows were committed", total, sum)
	}
	verbose := run(t, dir, true)
	if n := strings.Count(verbose, " tid("); n != sum {
		t.Fatalf("-verbose lists %d transactions, the summary counted %d", n, sum)
	}
	if strings.Contains(verbose, "beyond D") {
		t.Fatal("a cleanly closed log holds a transaction beyond D")
	}
}

// TestVerboseMarksBeyondD: a transaction logged after the last durable
// frame of its logger, in an epoch past D, is listed as beyond D, and D
// does not move.
func TestVerboseMarksBeyondD(t *testing.T) {
	dir := t.TempDir()
	infos := writeLog(t, dir)
	d, _ := strconv.ParseUint(durableLine.FindStringSubmatch(run(t, dir, false))[1], 10, 64)
	seg := infos[0].Path
	appendFrame(t, seg, txnRecord(uint64(tid.Make(d+1, 1)), 0), 1<<20)

	out := run(t, dir, true)
	if got, _ := strconv.ParseUint(durableLine.FindStringSubmatch(out)[1], 10, 64); got != d {
		t.Fatalf("D=%d after appending a transaction beyond it, was %d", got, d)
	}
	want := fmt.Sprintf("%s tid(e=%d,seq=1) 0 writes [beyond D (discarded on recovery)]\n", seg, d+1)
	if !strings.Contains(out, want) {
		t.Fatalf("-verbose output does not hold %q", want)
	}
	if n := strings.Count(out, "beyond D"); n != 1 {
		t.Fatalf("%d transactions beyond D, want the one appended", n)
	}
}

// TestTornFinalFrameShowsNothing: a final frame cut short is a torn write,
// and neither the summary nor -verbose shows anything of it: the output is
// the one of the log without it, apart from the sizes, which count every
// byte of the file.
func TestTornFinalFrameShowsNothing(t *testing.T) {
	dir := t.TempDir()
	infos := writeLog(t, dir)
	sizes := regexp.MustCompile(`[0-9.]+ [KM]B`)
	before := [2]string{run(t, dir, false), run(t, dir, true)}
	// One write: table 0, an empty key and an empty value.
	payload := append(txnRecord(uint64(tid.Make(1, 1)), 1), make([]byte, 10)...)
	appendFrame(t, infos[len(infos)-1].Path, payload, 9+len(payload)-3)
	for i, verbose := range []bool{false, true} {
		after := run(t, dir, verbose)
		if sizes.ReplaceAllString(after, "") != sizes.ReplaceAllString(before[i], "") {
			t.Fatalf("verbose=%v: a torn final frame changed the output:\n%s\nwas:\n%s", verbose, after, before[i])
		}
	}
}

// TestUndecodableFrameFails: a frame whose checksum is valid but whose
// payload does not decode is not a torn write; the summary fails, naming
// the segment and the frame's offset in it. The printing walk shows
// nothing of the frame.
func TestUndecodableFrameFails(t *testing.T) {
	dir := t.TempDir()
	infos := writeLog(t, dir)
	seg := infos[0].Path
	// One write declared, none held.
	off := appendFrame(t, seg, txnRecord(uint64(tid.Make(999999, 1)), 1), 1<<20)
	for _, verbose := range []bool{false, true} {
		err := summarize(&bytes.Buffer{}, dir, verbose)
		if err == nil || !errors.Is(err, wal.ErrCorrupt) || !strings.Contains(err.Error(), seg) ||
			!strings.Contains(err.Error(), fmt.Sprintf("offset %d", off)) {
			t.Fatalf("verbose=%v: error %v, want ErrCorrupt naming %s and offset %d", verbose, err, seg, off)
		}
	}
	var out bytes.Buffer
	if _, _, err := walkSegment(seg, &lister{out: &out, path: seg}); err == nil || strings.Contains(out.String(), "tid(e=999999,") {
		t.Fatalf("the printing walk returned %v and showed the frame that does not decode", err)
	}
}
