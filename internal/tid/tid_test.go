package tid

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestFieldRoundTrip(t *testing.T) {
	cases := []struct{ epoch, seq uint64 }{
		{0, 0}, {1, 0}, {0, 1}, {1, 1},
		{MaxEpoch, MaxSeq}, {12345, 678910}, {1 << 20, 1 << 30},
	}
	for _, c := range cases {
		w := Make(c.epoch, c.seq)
		if w.Epoch() != c.epoch&MaxEpoch || w.Seq() != c.seq&MaxSeq {
			t.Errorf("Make(%d,%d) round-trips to (%d,%d)", c.epoch, c.seq, w.Epoch(), w.Seq())
		}
		if w.Locked() || w.Latest() || w.Absent() {
			t.Errorf("Make(%d,%d) has status bits set", c.epoch, c.seq)
		}
	}
}

func TestFieldRoundTripProperty(t *testing.T) {
	f := func(epoch, seq uint64) bool {
		w := Make(epoch, seq)
		return w.Epoch() == epoch&MaxEpoch &&
			w.Seq() == seq&MaxSeq &&
			w.TID() == uint64(w) // no status bits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatusBits(t *testing.T) {
	w := Make(5, 9)
	if l := w.WithLock(); !l.Locked() || l.TID() != w.TID() {
		t.Error("WithLock")
	}
	if u := w.WithLock().WithoutLock(); u.Locked() {
		t.Error("WithoutLock")
	}
	if v := w.WithLatest(true); !v.Latest() || v.WithLatest(false).Latest() {
		t.Error("WithLatest")
	}
	if a := w.WithAbsent(true); !a.Absent() || a.WithAbsent(false).Absent() {
		t.Error("WithAbsent")
	}
	full := w.WithLock().WithLatest(true).WithAbsent(true)
	if full.TID() != w.TID() {
		t.Error("status bits leak into pure TID")
	}
	if full.Epoch() != w.Epoch() || full.Seq() != w.Seq() {
		t.Error("status bits corrupt fields")
	}
}

func TestOrderingAcrossEpochs(t *testing.T) {
	// The ordering of TIDs with different epochs agrees with epoch order
	// (§4.2).
	if uint64(Make(2, 0)) <= uint64(Make(1, MaxSeq)) {
		t.Fatal("epoch ordering broken")
	}
}

// gen calls Generate and fails the test if the epoch had no TID left.
func gen(t *testing.T, g *Generator, epoch, observed uint64) Word {
	t.Helper()
	w, ok := g.Generate(epoch, observed)
	if !ok {
		t.Fatalf("Generate(%d, %v) found the epoch full", epoch, Word(observed))
	}
	return w
}

func TestGeneratorMonotonicAndRules(t *testing.T) {
	var g Generator
	// (a) larger than any record TID observed, (b) larger than the last
	// generated, (c) in the current epoch.
	w1 := gen(t, &g, 3, 0)
	if w1.Epoch() != 3 {
		t.Fatalf("epoch=%d", w1.Epoch())
	}
	w2 := gen(t, &g, 3, 0)
	if uint64(w2) <= uint64(w1) {
		t.Fatal("not monotone")
	}
	// Observed TID larger than our last: must exceed it.
	obs := uint64(Make(3, 1000))
	w3 := gen(t, &g, 3, obs)
	if uint64(w3) <= obs {
		t.Fatal("did not exceed observed")
	}
	// New epoch: must move to it.
	w4 := gen(t, &g, 7, 0)
	if w4.Epoch() != 7 {
		t.Fatalf("epoch=%d", w4.Epoch())
	}
	if uint64(w4) <= uint64(w3) {
		t.Fatal("epoch bump not monotone")
	}
}

// TestGenerateRefusesFullEpoch: once an epoch's sequence numbers are used
// up, Generate refuses rather than carrying into the epoch field (which
// would hand out a TID of a later epoch), leaves the generator as it was,
// and succeeds again in the next epoch. Both generators share the rule.
func TestGenerateRefusesFullEpoch(t *testing.T) {
	const e = 9
	last := uint64(Make(e, MaxSeq))
	var g Generator
	if w, ok := g.Generate(e, last); ok {
		t.Fatalf("Generate past MaxSeq returned %v, ok; want a refusal", w)
	}
	if g.Last() != 0 {
		t.Fatalf("a refused Generate moved the generator to %v", Word(g.Last()))
	}
	if w := gen(t, &g, e, uint64(Make(e, MaxSeq-1))); w.Epoch() != e || w.Seq() != MaxSeq {
		t.Fatalf("the last TID of the epoch = %v, want seq %d", w, MaxSeq)
	}
	if w, ok := g.Generate(e, 0); ok {
		t.Fatalf("Generate after the epoch's last TID returned %v, ok", w)
	}
	if w := gen(t, &g, e+1, 0); w.Epoch() != e+1 || w.Seq() != 0 {
		t.Fatalf("first TID of the next epoch = %v", w)
	}
	// An observed TID of a later epoch is refused the same way.
	if w, ok := g.Generate(e+1, uint64(Make(e+2, 0))); ok {
		t.Fatalf("Generate under a later epoch's TID returned %v, ok", w)
	}

	var gg GlobalGenerator
	if w, ok := gg.Generate(e, last); ok {
		t.Fatalf("GlobalGenerator past MaxSeq returned %v, ok", w)
	}
	if w, ok := gg.Generate(e, 0); !ok || w != Make(e, 0) {
		t.Fatalf("GlobalGenerator after a refusal = %v, %v; want %v", w, ok, Make(e, 0))
	}
}

func TestGeneratorProperty(t *testing.T) {
	f := func(epochSmall uint16, seqs []uint32) bool {
		epoch := uint64(epochSmall) + 1
		var g Generator
		last := uint64(0)
		for _, s := range seqs {
			obs := uint64(Make(epoch, uint64(s)))
			w, ok := g.Generate(epoch, obs)
			if !ok {
				// Only a full epoch is refused, and the generator stays put.
				if max(obs, last) < uint64(Make(epoch, MaxSeq)) || g.Last() != last {
					return false
				}
				continue
			}
			if uint64(w) <= last || uint64(w) <= obs {
				return false
			}
			if w.Epoch() != epoch {
				return false
			}
			if uint64(w)&StatusMask != 0 {
				return false
			}
			last = uint64(w)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalGeneratorConcurrent(t *testing.T) {
	var g GlobalGenerator
	const (
		goroutines = 8
		per        = 2000
	)
	results := make([][]Word, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := make([]Word, per)
			for j := 0; j < per; j++ {
				w, ok := g.Generate(2, 0)
				if !ok {
					t.Errorf("epoch full after %d TIDs", j)
					return
				}
				out[j] = w
			}
			results[i] = out
		}(i)
	}
	wg.Wait()
	seen := make(map[Word]bool, goroutines*per)
	for i, out := range results {
		for j := 1; j < len(out); j++ {
			if uint64(out[j]) <= uint64(out[j-1]) {
				t.Fatalf("goroutine %d not monotone at %d", i, j)
			}
		}
		for _, w := range out {
			if seen[w] {
				t.Fatalf("duplicate TID %v", w)
			}
			seen[w] = true
		}
	}
}

func TestWordString(t *testing.T) {
	s := Make(4, 2).WithLock().WithLatest(true).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
