package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"silo/internal/ledger"
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

// walkSegment is a 4 MB segment of two-write transactions with 100-byte
// values, the record shape of the repository benchmark's recovery.replay
// workload.
func walkSegment() []byte {
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
	return seg.Bytes()
}

// walk decodes data into v, reset first.
func walk(tb testing.TB, data []byte, v *countingVisitor) {
	*v = countingVisitor{}
	ScanSegment(data, 1).Walk(v)
	if v.entries != 2*v.txns || v.txns == 0 {
		tb.Fatalf("walked %d transactions, %d entries", v.txns, v.entries)
	}
}

// BenchmarkWalkSegment prices the log decoder alone — ScanSegment (frame
// headers and CRCs) plus Walk (every transaction and entry, in place) —
// over walkSegment. It reports MB/s; TestLedger holds its allocations at 0.
func BenchmarkWalkSegment(b *testing.B) {
	data := walkSegment()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var v countingVisitor
	for i := 0; i < b.N; i++ {
		walk(b, data, &v)
	}
}

// TestLedger holds the log decoder's allocations: ScanSegment and Walk
// read keys and values in place, so decoding costs no memory.
func TestLedger(t *testing.T) {
	ledger.Check(t, ledger.Row{
		Layer: "wal", Count: "allocs/op ScanSegment+Walk of 4 MB", Bound: ledger.AtMost(0), Race: true,
		Claim: "replay reads the log in place: the decoder allocates nothing",
		How:   "testing.AllocsPerRun(10) of decoding walkSegment",
		Got: func() float64 {
			data, v := walkSegment(), new(countingVisitor)
			return testing.AllocsPerRun(10, func() { walk(t, data, v) })
		},
	})
}
