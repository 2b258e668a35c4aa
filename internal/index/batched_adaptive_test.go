package index

import (
	"fmt"
	"testing"

	"silo/internal/core"
)

// batched_adaptive_test.go pins Scan's resolution-mode choice: a sample
// of the first collected primary keys decides between the ordered
// multi-get (clustered pks) and one point read per entry (scattered pks).
// Either way the results must match the entries-plus-point-reads
// reference exactly.

// scatterPK derives a hash-like primary key: a SplitMix64 step renders as
// hex, so consecutive ids share essentially no prefix.
func scatterPK(i int) []byte {
	z := uint64(i+1) * 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	return []byte(fmt.Sprintf("%016x", z))
}

func scanModes(ix *Index) (batched, streamed uint64) {
	return ix.obs.modes[modeBatched].Load(), ix.obs.modes[modeStreamed].Load()
}

func runBatched(t *testing.T, w *core.Worker, ix *Index, lo, hi []byte) []string {
	t.Helper()
	var got []string
	if err := runTx(w, func(tx *core.Tx) error {
		got = got[:0]
		return Scan(tx, ix, lo, hi, 0, func(sk, pk, val []byte) bool {
			got = append(got, fmt.Sprintf("%s/%s=%s", sk, pk, val[12:]))
			return true
		})
	}); err != nil {
		t.Fatalf("batched scan: %v", err)
	}
	return got
}

// TestBatchedScatteredFallsBackToStreaming: hash-like pks share no
// prefix, so the clustering sample must route resolution through one
// point read per entry — with results identical to the reference.
func TestBatchedScatteredFallsBackToStreaming(t *testing.T) {
	s := newStore(t, 1)
	users := s.CreateTable("users")
	byCity := mustNew(t, s, users, "users_by_city", false, cityKey)
	w := s.Worker(0)
	for i := 0; i < 32; i++ {
		pk := scatterPK(i)
		if err := runTx(w, func(tx *core.Tx) error {
			return tx.Insert(users, pk, userVal("AMS", uint64(i), name(i)))
		}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	var ref []string
	if err := runTx(w, func(tx *core.Tx) error {
		ref = ref[:0]
		return ScanEntries(tx, byCity, []byte("AMS"), []byte("AMT"), func(sk, pk []byte) bool {
			val, err := tx.Get(users, pk)
			if err != nil {
				t.Fatalf("reference resolve %s: %v", pk, err)
			}
			ref = append(ref, fmt.Sprintf("%s/%s=%s", sk, pk, val[12:]))
			return true
		})
	}); err != nil {
		t.Fatalf("reference scan: %v", err)
	}

	_, streamedBefore := scanModes(byCity)
	got := runBatched(t, w, byCity, []byte("AMS"), []byte("AMT"))
	_, streamedAfter := scanModes(byCity)

	if streamedAfter != streamedBefore+1 {
		t.Errorf("scattered pks resolved via multi-get: streamed count %d -> %d, want +1",
			streamedBefore, streamedAfter)
	}
	if len(got) != 32 || fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Errorf("streaming fallback diverged from reference:\n got %v\nwant %v", got, ref)
	}
}

// TestBatchedClusteredKeepsMultiGet: sequential zero-padded pks share a
// long prefix, so the sample must keep the ordered multi-get path.
func TestBatchedClusteredKeepsMultiGet(t *testing.T) {
	s := newStore(t, 1)
	users := s.CreateTable("users")
	byCity := mustNew(t, s, users, "users_by_city", false, cityKey)
	w := s.Worker(0)
	for i := 0; i < 32; i++ {
		insertUser(t, w, users, i, "AMS", uint64(i), name(i))
	}

	_, streamedBefore := scanModes(byCity)
	got := runBatched(t, w, byCity, []byte("AMS"), []byte("AMT"))
	_, streamedAfter := scanModes(byCity)

	if streamedAfter != streamedBefore {
		t.Errorf("clustered pks fell back to streaming (streamed %d -> %d)",
			streamedBefore, streamedAfter)
	}
	if len(got) != 32 {
		t.Errorf("clustered batched scan returned %d rows, want 32", len(got))
	}
}
