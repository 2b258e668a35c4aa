package recovery_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"silo"
	"silo/internal/catalog"
	"silo/internal/core"
	"silo/internal/recovery"
	"silo/internal/sim"
	"silo/internal/workload/tpcc"
)

// partRows counts the rows of each table in each part file of a checkpoint
// set, reading the part format of the package doc.
func partRows(t *testing.T, res recovery.CheckpointResult) map[uint32][]int {
	t.Helper()
	counts := map[uint32][]int{}
	for k := 0; k < res.Partitions; k++ {
		data, err := os.ReadFile(filepath.Join(res.Path, fmt.Sprintf("part.%d", k)))
		if err != nil {
			t.Fatal(err)
		}
		body := data[:len(data)-5]
		for off := 16; off < len(body); {
			table := binary.LittleEndian.Uint32(body[off+1:])
			off += 7 + int(binary.LittleEndian.Uint16(body[off+5:])) + 8
			off += 4 + int(binary.LittleEndian.Uint32(body[off:]))
			if counts[table] == nil {
				counts[table] = make([]int, res.Partitions)
			}
			counts[table][k]++
		}
	}
	return counts
}

// checkShares holds every table of at least minLeaves leaves to a share of
// 15–35 % of its rows in each of the four parts.
func checkShares(t *testing.T, tables []*core.Table, res recovery.CheckpointResult, minLeaves int) {
	t.Helper()
	checked := 0
	for id, counts := range partRows(t, res) {
		tbl := tables[id]
		total := 0
		for _, n := range counts {
			total += n
		}
		sh := tbl.Tree.Shape()
		t.Logf("%s: %d rows in %d leaves, per part %v", tbl.Name, total, sh.Leaves, counts)
		if sh.Leaves < minLeaves {
			continue
		}
		checked++
		for k, n := range counts {
			if f := float64(n) / float64(total); f < 0.15 || f > 0.35 {
				t.Errorf("%s: part %d holds %.3f of its %d rows", tbl.Name, k, f, total)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no table had the leaves to check")
	}
}

// TestCheckpointBoundsRealisticKeys: keys as this repository's workloads
// make them — 8-byte big-endian ids, all starting with zero bytes, loaded in
// order and shuffled, and a two-warehouse TPC-C load, whose keys start
// with the warehouse — are cut into four parts that each hold 15–35 % of
// every table of at least two leaves per part.
func TestCheckpointBoundsRealisticKeys(t *testing.T) {
	t.Parallel()
	const parts = 4
	for _, order := range []string{"ascending", "shuffled"} {
		t.Run("ids/"+order, func(t *testing.T) {
			opts := core.DefaultOptions(1)
			opts.ManualEpochs = true
			opts.SnapshotK = 2
			s := core.NewStore(opts)
			defer s.Close()
			tbl, err := catalog.New(s).CreateTable("ids")
			if err != nil {
				t.Fatal(err)
			}
			ids := rand.New(rand.NewSource(1)).Perm(100_000)
			if order == "ascending" {
				for i := range ids {
					ids[i] = i
				}
			}
			for lo := 0; lo < len(ids); lo += 512 {
				if err := s.Worker(0).Run(func(tx *core.Tx) error {
					for _, id := range ids[lo:min(lo+512, len(ids))] {
						if err := tx.Insert(tbl, binary.BigEndian.AppendUint64(nil, uint64(id)), []byte("v")); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10; i++ {
				s.AdvanceEpoch()
			}
			res, err := recovery.WriteCheckpoint(nil, s, s.Maintenance(), t.TempDir(), parts)
			if err != nil {
				t.Fatal(err)
			}
			checkShares(t, s.Tables(), res, 2*parts)
		})
	}

	t.Run("tpcc-2wh", func(t *testing.T) {
		// Epochs advance only as the test steps the clock: one step per
		// interval until a snapshot epoch has the whole load behind it.
		clock := sim.NewClock()
		db, err := silo.Open(silo.Options{Workers: 1, EpochInterval: time.Millisecond, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tpcc.Load(db, tpcc.DefaultScale(2))
		s := db.Store()
		for loaded := db.Epoch(); s.Epochs().SnapshotGlobal() <= loaded; {
			clock.Advance(time.Millisecond)
		}
		res, err := recovery.WriteCheckpoint(nil, s, s.Maintenance(), t.TempDir(), parts)
		if err != nil {
			t.Fatal(err)
		}
		checkShares(t, s.Tables(), res, 2*parts)
	})
}
