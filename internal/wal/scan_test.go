package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// scanSequential is pass 1 as one goroutine runs it: frame after frame,
// header and CRC, up to the first bad one. It is the reference the ranged
// scan must match: the prefix's length, its largest durable frame and its
// deflated frames.
func scanSequential(data []byte) (prefix int, durable uint64, deflated int) {
	for prefix < len(data) {
		kind, _, epoch, next, err := frameAt(data, prefix, true)
		if err != nil {
			break
		}
		switch {
		case kind == frameDurable && epoch > durable:
			durable = epoch
		case kind == frameDeflated:
			deflated++
		}
		prefix = next
	}
	return prefix, durable, deflated
}

// scanSeed writes one frame per byte of kinds — 'B' plain, 'C' deflated,
// each holding one 100-byte transaction, or 'D' durable at epoch 10 — and
// returns the bytes and each frame's offset.
func scanSeed(kinds string) (data []byte, offs []int) {
	var b bytes.Buffer
	for i, k := range kinds {
		offs = append(offs, b.Len())
		if k == 'D' {
			writeDurableFrame(&b, 10)
			continue
		}
		p := appendTxn(nil, uint64(i+1), []Entry{{Table: 1, Key: []byte(fmt.Sprintf("key%03d", i)), Value: bytes.Repeat([]byte{byte(i)}, 100)}})
		if k == 'C' {
			p = deflate(p)
		}
		writeBufferFrame(&b, byte(k), p)
	}
	return b.Bytes(), offs
}

// FuzzScanSegment holds the ranged scan to the sequential one: for any
// input and any count of goroutines from 1 to 8, ScanSegment returns the
// prefix, Durable and Deflated that scanSequential finds — in particular
// nothing from the first bad frame in file order on, whichever range it
// falls in — and Size is the input's length. The prefix is then cut into
// pieces of several sizes (Split): the pieces tile it at frame boundaries,
// their counts add up to the prefix's, and walking them one after the
// other shows what walking the prefix does and fails with the same error,
// naming the same file offset.
func FuzzScanSegment(f *testing.F) {
	{ // a bad CRC in the last range
		data, offs := scanSeed("BBBBBBBD")
		data[offs[6]+5] ^= 0xff
		f.Add(data)
	}
	{ // a bad CRC in the first range, then a durable frame that must not count
		data, offs := scanSeed("BDBBBBBBD")
		data[offs[0]+5] ^= 0xff
		f.Add(data)
	}
	{ // deflated frames on both sides of every cut
		data, _ := scanSeed("CBCCBCDCCBCD")
		f.Add(data)
	}
	{ // a torn tail
		data, offs := scanSeed("BCBDBCBD")
		f.Add(data[:offs[6]+40])
	}
	{ // a length field that runs past the end of the file
		data, offs := scanSeed("BBDBBBBD")
		binary.LittleEndian.PutUint32(data[offs[5]+1:], 1<<20)
		f.Add(data)
	}
	{ // an undecodable frame with a valid CRC past the first cut
		data, _ := scanSeed("BBBBBBD")
		var b bytes.Buffer
		writeBufferFrame(&b, frameBuffer, []byte{1, 2, 3})
		f.Add(append(append(data, b.Bytes()...), data...))
	}
	for _, compress := range []bool{false, true} {
		for _, seg := range realSegments(f, compress) {
			f.Add(seg)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		prefix, durable, deflated := scanSequential(data)
		if want := refParse(data); want.durable != durable || len(want.ends) > 0 && want.ends[len(want.ends)-1] != prefix {
			t.Fatalf("the sequential scan disagrees with the format: durable %d, prefix %d; refParse %d, %v", durable, prefix, want.durable, want.ends)
		}
		for n := 1; n <= 8; n++ {
			s := ScanSegment(data, n)
			if s.Len() != prefix || s.Durable != durable || s.Deflated != deflated || s.Size != int64(len(data)) {
				t.Fatalf("ScanSegment(%d): prefix %d, durable %d, deflated %d, size %d; sequentially %d, %d, %d, %d",
					n, s.Len(), s.Durable, s.Deflated, s.Size, prefix, durable, deflated, len(data))
			}
		}

		seg := ScanSegment(data, 1)
		var whole txnCollector
		wholeErr := seg.Walk(&whole)
		for _, size := range []int{1, 13, 100, prefix/3 + 1, prefix + 1} {
			pieces := seg.Split(size)
			at, d, c := 0, uint64(0), 0
			var got txnCollector
			var err error
			for i, p := range pieces {
				if p.at != at || p.Len() == 0 || int64(p.Len()) != p.Size || !bytes.Equal(p.data, data[at:at+p.Len()]) {
					t.Fatalf("size %d: piece %d at %d of %d bytes, want it at %d", size, i, p.at, p.Len(), at)
				}
				if i+1 < len(pieces) && at+p.Len() < (i+1)*size {
					t.Fatalf("size %d: piece %d ends at %d, before %d", size, i, at+p.Len(), (i+1)*size)
				}
				at, d, c = at+p.Len(), max(d, p.Durable), c+p.Deflated
				if err == nil {
					err = p.Walk(&got)
				}
			}
			if at != prefix || d != durable || c != deflated {
				t.Fatalf("size %d: pieces cover %d bytes, durable %d, deflated %d; the prefix %d, %d, %d", size, at, d, c, prefix, durable, deflated)
			}
			if fmt.Sprint(err) != fmt.Sprint(wholeErr) || len(got.txns) != len(whole.txns) {
				t.Fatalf("size %d: pieces walk to %d transactions, error %v; the prefix to %d, error %v", size, len(got.txns), err, len(whole.txns), wholeErr)
			}
			for i := range got.txns {
				if got.txns[i].TID != whole.txns[i].TID || !sameEntries(got.txns[i].Entries, whole.txns[i].Entries) {
					t.Fatalf("size %d: transaction %d: pieces yield %+v, the prefix %+v", size, i, got.txns[i], whole.txns[i])
				}
			}
		}
	})
}
