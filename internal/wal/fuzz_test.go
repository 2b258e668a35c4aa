package wal

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"silo/internal/core"
	"silo/internal/tid"
)

// refSegment is what a segment holds according to refParse.
type refSegment struct {
	txns    []txnRecord
	durable uint64
	ends    []int // offset after each well-formed frame
	decoded bool  // every well-formed frame's payload decoded
}

// refParse is a second, deliberately plain reading of the on-disk format
// (see the comment at the top of format.go) for the fuzz target to compare
// the decoder with: it copies everything, checks every length before it
// uses it, and shares no code with frameAt or walkPayload.
// The segment's durable epoch is the largest durable frame before the
// first frame with a bad header or CRC; its transactions are those of the
// buffer ('B') and deflated ('C') frames before that point, up to the first
// one whose payload does not inflate — to at most 4 MiB — or decode. What a
// payload is comes from the frame's kind alone.
func refParse(data []byte) refSegment {
	out := refSegment{decoded: true}
	for off := 0; off < len(data); {
		switch data[off] {
		case 'D':
			if off+13 > len(data) || crc32.ChecksumIEEE(data[off+1:off+9]) != binary.LittleEndian.Uint32(data[off+9:]) {
				return out
			}
			out.durable = max(out.durable, binary.LittleEndian.Uint64(data[off+1:]))
			off += 13
		case 'B', 'C':
			deflated := data[off] == 'C'
			if off+9 > len(data) {
				return out
			}
			n := int(binary.LittleEndian.Uint32(data[off+1:]))
			if n > len(data)-off-9 {
				return out
			}
			p := data[off+9 : off+9+n]
			if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(data[off+5:]) {
				return out
			}
			off += 9 + n
			if out.decoded {
				txns, ok := refPayload(p, deflated)
				if out.decoded = ok; ok {
					out.txns = append(out.txns, txns...)
				}
			}
		default:
			return out
		}
		out.ends = append(out.ends, off)
	}
	return out
}

func refPayload(p []byte, deflated bool) ([]txnRecord, bool) {
	if deflated {
		// One byte past the bound is enough to know it was exceeded.
		out, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(p)), 4<<20+1))
		if err != nil || len(out) > 4<<20 {
			return nil, false
		}
		p = out
	}
	var txns []txnRecord
	for len(p) > 0 {
		if len(p) < 12 {
			return nil, false
		}
		t := txnRecord{TID: binary.LittleEndian.Uint64(p)}
		n := binary.LittleEndian.Uint32(p[8:])
		p = p[12:]
		for ; n > 0; n-- {
			if len(p) < 6 {
				return nil, false
			}
			e := Entry{Table: binary.LittleEndian.Uint32(p)}
			klen := int(binary.LittleEndian.Uint16(p[4:]))
			p = p[6:]
			if len(p) < klen+4 {
				return nil, false
			}
			e.Key = append([]byte(nil), p[:klen]...)
			vlen := binary.LittleEndian.Uint32(p[klen:])
			p = p[klen+4:]
			if vlen == ^uint32(0) {
				e.Delete = true
			} else {
				if uint64(vlen) > uint64(len(p)) {
					return nil, false
				}
				e.Value = append([]byte(nil), p[:vlen]...)
				p = p[vlen:]
			}
			t.Entries = append(t.Entries, e)
		}
		txns = append(txns, t)
	}
	return txns, true
}

// aliasRecorder is a Visitor that keeps what it is shown without copying,
// as replay does, drops what it was shown of a torn frame, and checks the
// visitor contract as it goes: every call but Frame comes inside an open
// frame, every key and value lies in the payload last shown, and nothing
// follows a torn frame's end.
type aliasRecorder struct {
	t        *testing.T
	txns     []txnRecord
	left     int    // entries still owed for the last transaction
	payload  []byte // the frame being walked
	open     bool   // between Frame and FrameEnd
	mark     int    // transactions kept before the open frame
	inflated int    // inflated payloads shown
	torn     int    // frames ended torn
}

func (r *aliasRecorder) Frame(payload []byte, inflated bool) {
	if r.open || r.torn > 0 {
		r.t.Fatalf("frame shown inside another (open %v) or after a torn one (%d)", r.open, r.torn)
	}
	r.payload, r.open, r.mark = payload, true, len(r.txns)
	if inflated {
		r.inflated++
	}
}

func (r *aliasRecorder) FrameEnd(torn bool) {
	if !r.open {
		r.t.Fatal("frame ended that was not open")
	}
	if !torn && r.left != 0 {
		r.t.Fatalf("frame ended whole with %d entries of its last transaction outstanding", r.left)
	}
	r.open, r.left = false, 0
	if torn {
		r.torn++
		r.txns = r.txns[:r.mark]
	}
}

// within reports whether b lies in the payload last shown.
func (r *aliasRecorder) within(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(r.payload)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(r.payload))
}

func (r *aliasRecorder) Txn(tid uint64, writes int) bool {
	if !r.open {
		r.t.Fatalf("transaction %x announced outside a frame", tid)
	}
	if r.left != 0 {
		r.t.Fatalf("transaction %x announced with %d entries of the previous one outstanding", tid, r.left)
	}
	// Every third transaction is skipped, which must not disturb the rest.
	r.txns = append(r.txns, txnRecord{TID: tid})
	if len(r.txns)%3 == 0 {
		return false
	}
	r.left = writes
	return true
}

func (r *aliasRecorder) Entry(table uint32, key, value []byte, del bool) {
	if !r.open || r.left == 0 {
		r.t.Fatalf("entry %x shown outside a frame (%v) or beyond its transaction's count", key, r.open)
	}
	r.left--
	if del != (value == nil) {
		r.t.Fatalf("entry with delete=%v carries value %v", del, value)
	}
	if !r.within(key) || !r.within(value) {
		r.t.Fatalf("entry %x=%x lies outside the frame it was shown in", key, value)
	}
	cur := &r.txns[len(r.txns)-1]
	cur.Entries = append(cur.Entries, Entry{Table: table, Key: key, Value: value, Delete: del})
}

// sameEntries compares decoded entries, treating nil and empty alike (the
// copying forms turn an empty value into nil; the aliasing one does not).
func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Table != b[i].Table || a[i].Delete != b[i].Delete ||
			!bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// realSegments runs a small workload through real loggers — rotating
// segments, updates and deletes — and returns the segments they wrote.
// Epochs and logger passes run when the test says so — one of each per
// transaction — so every run writes the same frames, and the fuzz target's
// seeds, and with them the names of its seed subtests, are the same on
// every run. With real tickers the number of durable frames followed the
// scheduler.
func realSegments(tb testing.TB, compress bool) [][]byte {
	dir := tb.TempDir()
	opts := core.DefaultOptions(1)
	opts.ManualEpochs = true
	s := core.NewStore(opts)
	tb.Cleanup(func() { s.Close() })
	m, err := Attach(s, Config{Dir: dir, Compress: compress, SegmentBytes: 512, Clock: heldClock{}})
	if err != nil {
		tb.Fatal(err)
	}
	m.Start()
	tbl := s.CreateTable("t")
	w := s.Worker(0)
	for i := 0; i < 36; i++ {
		if err := w.Run(func(tx *core.Tx) error {
			k := []byte(fmt.Sprintf("key%02d", i%10))
			switch {
			case i < 10:
				return tx.Insert(tbl, k, bytes.Repeat([]byte{byte(i)}, 40))
			case i%4 == 0:
				return tx.Delete(tbl, k)
			default:
				err := tx.Put(tbl, k, bytes.Repeat([]byte{byte(i)}, i))
				if err == core.ErrNotFound {
					return tx.Insert(tbl, k, nil)
				}
				return err
			}
		}); err != nil {
			tb.Fatal(err)
		}
		// Close the transaction's epoch and run one pass: a buffer frame, a
		// durable frame, and a rotation once the segment has outgrown 512 B.
		e := tid.Word(w.LastCommitTID()).Epoch()
		s.Epochs().AdvanceTo(e + 1)
		for _, lg := range m.loggers {
			lg.iterate()
		}
		if d := m.DurableEpoch(); d != e {
			tb.Fatalf("durable epoch %d after the pass that closes %d", d, e)
		}
	}
	m.Stop()
	infos, err := ListLogFiles(nil, dir)
	if err != nil || len(infos) < 2 {
		tb.Fatalf("want rotated segments, got %d (err %v)", len(infos), err)
	}
	var segs [][]byte
	for _, fi := range infos {
		data, err := os.ReadFile(fi.Path)
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, data)
	}
	return segs
}

// cutFrames returns seg with its first buffer frame's payload cut short
// inside a transaction header, inside an entry header, and inside a value,
// each framed again — as a plain frame and as a deflated one — with a
// matching CRC: frames a torn write cannot produce, which the walk must
// reject whole.
func cutFrames(tb testing.TB, seg []byte) [][]byte {
	off := 0
	for seg[off] == frameDurable {
		off += 13
	}
	_, payload, _, next, err := frameAt(seg, off, true)
	if err != nil {
		tb.Fatal(err)
	}
	if seg[off] == frameDeflated {
		if payload, err = inflate(payload); err != nil {
			tb.Fatal(err)
		}
	}
	klen := int(binary.LittleEndian.Uint16(payload[16:]))
	vlen := int(binary.LittleEndian.Uint32(payload[18+klen:]))
	if vlen == 0 || vlen == int(deleteMarker) {
		tb.Fatalf("the first entry has no value to cut (length %x)", vlen)
	}
	var out [][]byte
	for _, cut := range []int{6, 15, 22 + klen + vlen/2} {
		for _, kind := range []byte{frameBuffer, frameDeflated} {
			p := payload[:cut]
			if kind == frameDeflated {
				p = deflate(p)
			}
			var b bytes.Buffer
			b.Write(seg[:off])
			writeBufferFrame(&b, kind, p)
			b.Write(seg[next:])
			out = append(out, b.Bytes())
		}
	}
	return out
}

// FuzzWalkSegment fuzzes the log decoder — the first parser in the system
// to read bytes from disk. Seeds are segments written by real loggers,
// plain and compressed, whole and cut at and around every frame boundary,
// one of each glued together (a directory reopened with Compress toggled
// appends to the same segment), and each with a frame whose CRC matches a
// payload cut mid-header or mid-value (cutFrames).
// For any input, ScanSegment and Segment.Walk must not panic or read out of
// bounds, must report exactly the transactions, entries and durable epoch
// that the plain reading of the format (refParse) finds — in particular
// nothing from the first corrupt frame on — and must agree with the copying
// form built on top of them (txnCollector).
func FuzzWalkSegment(f *testing.F) {
	var mixed []byte
	for _, compress := range []bool{false, true} {
		segs := realSegments(f, compress)
		mixed = append(mixed, segs[0]...)
		for _, seg := range cutFrames(f, segs[0]) {
			f.Add(seg)
		}
		for _, seg := range segs {
			f.Add(seg)
			for _, end := range refParse(seg).ends {
				for _, cut := range []int{end - 1, end, end + 1, end + 5} {
					if cut < len(seg) {
						f.Add(seg[:cut])
					}
				}
			}
		}
	}
	f.Add(mixed)
	f.Fuzz(func(t *testing.T, data []byte) {
		want := refParse(data)
		seg := ScanSegment(data, 1)
		if seg.Durable != want.durable || seg.Size != int64(len(data)) {
			t.Fatalf("ScanSegment: durable %d size %d, want %d and %d", seg.Durable, seg.Size, want.durable, len(data))
		}

		rec := &aliasRecorder{t: t}
		err := seg.Walk(rec)
		if complete := err == nil; complete != want.decoded || !complete && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("walk error %v, the format says complete = %v", err, want.decoded)
		}
		if rec.open || rec.left != 0 {
			t.Fatalf("walk ended with a frame open (%v) or %d entries outstanding", rec.open, rec.left)
		}
		if rec.torn > 1 || rec.torn == 1 && err == nil {
			t.Fatalf("%d frames ended torn, walk error %v", rec.torn, err)
		}
		if err == nil && rec.inflated != seg.Deflated {
			t.Fatalf("walk inflated %d frames, ScanSegment counted %d deflated", rec.inflated, seg.Deflated)
		}
		if len(rec.txns) != len(want.txns) {
			t.Fatalf("walk yields %d transactions, the format holds %d", len(rec.txns), len(want.txns))
		}
		for i, got := range rec.txns {
			w := want.txns[i]
			if (i+1)%3 == 0 {
				w.Entries = nil // skipped by the recorder
			}
			if got.TID != w.TID || !sameEntries(got.Entries, w.Entries) {
				t.Fatalf("transaction %d: walk yields %+v, the format holds %+v", i, got, w)
			}
		}

		var c txnCollector
		seg.Walk(&c)
		if len(c.txns) != len(want.txns) {
			t.Fatalf("collector holds %d transactions, want %d", len(c.txns), len(want.txns))
		}
		for i := range c.txns {
			if c.txns[i].TID != want.txns[i].TID || !sameEntries(c.txns[i].Entries, want.txns[i].Entries) {
				t.Fatalf("transaction %d: collector holds %+v, want %+v", i, c.txns[i], want.txns[i])
			}
		}
	})
}

// TestCorpusDecodesAsPinned holds the decoder to what it made of every
// checked-in corpus entry when the entry was added. The entries of the first
// block predate the deflated frame kind and hold 'B' and 'D' frames only,
// byte for byte what they were: their rows are the proof that the on-disk
// format of ordinary logs did not move when the kind was added.
func TestCorpusDecodesAsPinned(t *testing.T) {
	pinned := []struct {
		name                   string
		txns, entries, durable int
		complete               bool
	}{
		{"bad-crc-middle", 3, 4, 7, true},
		{"compressed-read-as-plain", 0, 0, 7, false},
		{"durable-not-monotone", 4, 5, 100, true},
		{"empty", 0, 0, 0, true},
		{"unknown-kind-after-good", 3, 4, 7, true},
		{"valid-crc-key-overruns", 0, 0, 1, false},
		{"valid-crc-payload-cut-mid-entry", 1, 1, 9, false},
		{"valid-crc-short-txn-header", 0, 0, 3, false},
		{"valid-crc-value-overruns", 0, 0, 1, false},
		{"valid-crc-writes-4g", 0, 0, 0, false},
		{"well-formed", 4, 5, 9, true},

		{"compressed-valid-crc-inflates-to-garbage", 0, 0, 9, false},
		{"compressed-valid-crc-not-deflate", 1, 1, 9, false},
		{"compressed-well-formed", 4, 5, 9, true},
		{"deflated-kind-on-plain-payload", 0, 0, 7, false},
		{"mixed-kinds", 5, 7, 5, true},
		{"deflated-inflates-to-bound", 3, 4, 7, true},
		{"deflated-inflates-past-bound", 1, 2, 7, false},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWalkSegment")
	if files, err := os.ReadDir(dir); err != nil || len(files) != len(pinned) {
		t.Fatalf("%d corpus entries (err %v), %d pinned: pin the new one", len(files), err, len(pinned))
	}
	for _, p := range pinned {
		raw, _ := os.ReadFile(filepath.Join(dir, p.name))
		// "go test fuzz v1", then the one argument as a Go literal.
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(raw), "\n")[1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		seg := ScanSegment([]byte(data), 1)
		var c txnCollector
		got, entries := p, 0
		got.complete = seg.Walk(&c) == nil
		for _, txn := range c.txns {
			entries += len(txn.Entries)
		}
		if got.txns, got.entries, got.durable = len(c.txns), entries, int(seg.Durable); got != p {
			t.Errorf("decodes as %+v, pinned %+v", got, p)
		}
	}
}
