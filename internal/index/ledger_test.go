package index

import (
	"testing"

	"silo/internal/ledger"
)

// TestLedger holds every scanShapes entry at 0 allocations per 100-row
// range over 100 000 rows, under a serializable and a snapshot reader,
// once its pooled scratch and the transaction's buffers have grown.
func TestLedger(t *testing.T) {
	load := ledger.Once(func() *scanBench { return newScanBench(t) })
	var rows []ledger.Row
	for shape, sh := range scanShapes {
		for _, snapshot := range []bool{false, true} {
			name := "allocs/scan " + sh.name
			if snapshot {
				name += ", snapshot"
			}
			rows = append(rows, ledger.Row{
				Layer: "index", Count: name, Bound: ledger.AtMost(0), Race: true,
				Claim: "a 100-row index scan allocates nothing once its scratch has grown",
				How:   "testing.AllocsPerRun(100) of scans from benchStart(i), after 8 warm ones",
				Got: func() float64 {
					sb, i := load(), 0
					run := func() { i++; sb.run(t, shape, snapshot, i) }
					for j := 0; j < 8; j++ {
						run()
					}
					return testing.AllocsPerRun(100, run)
				},
			})
		}
	}
	ledger.Check(t, rows...)
}
