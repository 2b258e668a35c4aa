package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"silo/internal/obs"
)

// TestSeedCorpus runs the explorer over a fixed corpus of seeds. Every
// oracle must hold on every seed — a failure here prints the seed, and
// rerunning that one seed replays the violation byte for byte.
func TestSeedCorpus(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		res, err := Explore(seed)
		if err != nil {
			t.Errorf("%v\n(crashed=%v commits=%d; rerun: Explore(%d))", err, res.Crashed, res.Commits, res.Seed)
		}
	}
}

// TestReplayDeterminism asserts the property every other test leans on:
// running the same seed twice produces the identical op trace, the
// identical disk image, and the identical deterministic metric samples
// (commit/abort/table counters before shutdown, replay counters after
// recovery), bit for bit.
func TestReplayDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, errA := Explore(seed)
		b, errB := Explore(seed)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: verdict changed between runs: %v vs %v", seed, errA, errB)
		}
		if a.Trace != b.Trace {
			t.Fatalf("seed %d: trace diverged between runs:\n--- first\n%s\n--- second\n%s", seed, a.Trace, b.Trace)
		}
		if a.FSHash != b.FSHash {
			t.Fatalf("seed %d: disk image hash diverged: %016x vs %016x", seed, a.FSHash, b.FSHash)
		}
		if !bytes.Equal(a.ObsCounters, b.ObsCounters) {
			t.Fatalf("seed %d: pre-shutdown counters diverged between runs:\n%s", seed, counterDiff(t, a.ObsCounters, b.ObsCounters))
		}
		if !bytes.Equal(a.ObsRecovered, b.ObsRecovered) {
			t.Fatalf("seed %d: post-recovery counters diverged between runs:\n%s", seed, counterDiff(t, a.ObsRecovered, b.ObsRecovered))
		}
		if !bytes.Equal(a.FlightBinary, b.FlightBinary) {
			t.Fatalf("seed %d: flight-recorder fingerprint diverged between runs (%d vs %d bytes)",
				seed, len(a.FlightBinary), len(b.FlightBinary))
		}
		if !bytes.Equal(a.FlightRecovered, b.FlightRecovered) {
			t.Fatalf("seed %d: post-recovery flight fingerprint diverged between runs (%d vs %d bytes)",
				seed, len(a.FlightRecovered), len(b.FlightRecovered))
		}
		// A history always commits and runs DDL, so the pre-shutdown ring
		// must hold events (32 bytes each); replay must not re-record live
		// DDL or commits wholesale, but recovery's own table creation may.
		if len(a.FlightBinary) == 0 || len(a.FlightBinary)%32 != 0 {
			t.Fatalf("seed %d: flight fingerprint malformed: %d bytes", seed, len(a.FlightBinary))
		}
		if len(a.FlightRecovered)%32 != 0 {
			t.Fatalf("seed %d: recovered flight fingerprint malformed: %d bytes", seed, len(a.FlightRecovered))
		}

		// The fingerprints are real snapshots, not hashes: they decode,
		// and their headline series bound the history's own bookkeeping.
		pre, err := obs.DecodeSnapshot(a.ObsCounters)
		if err != nil {
			t.Fatalf("seed %d: pre-shutdown fingerprint does not decode: %v", seed, err)
		}
		if got := pre.Value("silo_core_commits_total", ""); got < uint64(a.Commits) {
			t.Fatalf("seed %d: commit counter %d below the %d acknowledged commits", seed, got, a.Commits)
		}
		post, err := obs.DecodeSnapshot(a.ObsRecovered)
		if err != nil {
			t.Fatalf("seed %d: post-recovery fingerprint does not decode: %v", seed, err)
		}
		if post.Get("silo_recovery_txns_applied", "") == nil {
			t.Fatalf("seed %d: post-recovery fingerprint missing replay counters", seed)
		}
		for _, m := range append(pre.Samples, post.Samples...) {
			if m.Kind == obs.KindHist || strings.HasSuffix(m.Name, "_ns") {
				t.Fatalf("seed %d: wall-clock series %s leaked into a determinism fingerprint", seed, m.Name)
			}
		}
	}
}

// counterDiff names the samples that differ between two counter
// fingerprints for a failure message.
func counterDiff(t *testing.T, a, b []byte) string {
	t.Helper()
	sa, errA := obs.DecodeSnapshot(a)
	sb, errB := obs.DecodeSnapshot(b)
	if errA != nil || errB != nil {
		return "fingerprints undecodable"
	}
	var out strings.Builder
	for _, m := range sa.Samples {
		if got := sb.Value(m.Name, m.LabelValue); got != m.Value {
			fmt.Fprintf(&out, "%s{%s}: %d vs %d\n", m.Name, m.LabelValue, m.Value, got)
		}
	}
	return out.String()
}

// TestShutdownDrainRegression pins the headline bug: seed 1 is a history
// that ends in a clean shutdown with commits in its last epoch, which a
// Stop that drained without advancing the epoch lost (the mutant
// wal-stop-drain in internal/mutants). It must pass every oracle, and it
// must stay a clean-shutdown history: a change to the seed's draws that
// turned it into a crash would no longer test the drain.
func TestShutdownDrainRegression(t *testing.T) {
	const seed = 1
	res, err := Explore(seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if res.Crashed {
		t.Fatalf("seed %d ends in a crash, not a clean shutdown; pick a clean-shutdown seed that the drain mutant fails", seed)
	}
}
