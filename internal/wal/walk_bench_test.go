package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"silo/internal/tid"
)

// countingVisitor touches what it is shown and keeps nothing.
type countingVisitor struct {
	txns, entries, bytes int
}

func (c *countingVisitor) Frame([]byte, bool) {}
func (c *countingVisitor) FrameEnd(bool)      {}

func (c *countingVisitor) Txn(uint64, int) bool { c.txns++; return true }

func (c *countingVisitor) Entry(_ uint32, key, value []byte, _ bool) {
	c.entries++
	c.bytes += len(key) + len(value)
}

// BenchmarkWalkSegment prices the log decoder alone — ScanSegment (frame
// headers and CRCs) plus Walk (every transaction and entry, in place) —
// over a 4 MB segment of two-write transactions with 100-byte values, the
// record shape of the repository benchmark's recovery.replay workload. It
// reports MB/s and must stay at 0 allocs/op: decoding costs no memory.
func BenchmarkWalkSegment(b *testing.B) {
	var seg bytes.Buffer
	val := make([]byte, 100)
	for i := 0; seg.Len() < 4<<20; {
		var payload []byte
		for j := 0; j < 64; j, i = j+1, i+1 {
			payload = appendTxn(payload, uint64(tid.Make(3, uint64(i+1))), []Entry{
				{Table: 1, Key: binary.BigEndian.AppendUint64(nil, uint64(2*i)), Value: val},
				{Table: 1, Key: binary.BigEndian.AppendUint64(nil, uint64(2*i+1)), Value: val},
			})
		}
		writeBufferFrame(&seg, frameBuffer, payload)
		writeDurableFrame(&seg, 3)
	}
	data := seg.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var v countingVisitor
	for i := 0; i < b.N; i++ {
		v = countingVisitor{}
		ScanSegment(data, 1).Walk(&v)
	}
	if v.entries != 2*v.txns || v.txns == 0 {
		b.Fatalf("walked %d transactions, %d entries", v.txns, v.entries)
	}
}
