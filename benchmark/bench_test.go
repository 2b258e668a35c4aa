package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"silo/internal/workload/tpcc"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100_000, 0.99}, // 1000 samples beyond p99
		{1000, 0.99},    // exactly ten beyond
		{999, 1 - 10.0/999},
		{500, 0.98},
		{20, 0.5},
		{19, 0.5}, // not even ten beyond the median: report the median
		{0, 0.5},
	} {
		if got := tailQuantile(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if got := quantile(sorted, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := quantile(sorted, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestWindowRates(t *testing.T) {
	ms := time.Millisecond
	// Slot 0 is the window before the measured ones. Window 1 completes
	// 100 requests between 10 ms before its start and 10 ms before its end;
	// window 2 stalls; window 3 has no predecessor completion and is
	// measured from its own start.
	count := []int64{5, 100, 0, 50, 100}
	last := []time.Duration{-10 * ms, 990 * ms, 0, 2500 * ms, 3500 * ms}
	got := windowRates(count, last)
	want := []float64{100, 0, 100, 100}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("window %d: rate %v, want %v", i, got[i], want[i])
		}
	}
	// One stalled window does not move the median of many.
	rates := []float64{100, 101, 0, 99, 100, 102, 100}
	if m := median(rates); m != 100 {
		t.Errorf("median of %v = %v, want 100", rates, m)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v", q1, q2, q3)
	}
}

// opHash hashes the first ops of a workload's op streams: the inputs the
// program under test would see.
func opHash(workload string, seed uint64) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	const callers, n = 4, 2000
	for c := 0; c < callers; c++ {
		switch workload {
		case "tpcc.embedded":
			cl := tpcc.NewClient(nil, tpcc.DefaultScale(2), nil, c+1, tpcc.StandardConfig(), callerSeed(seed, c))
			for i := 0; i < n; i++ {
				put(uint64(cl.NextType()), cl.RNG().Next())
			}
		case "ycsb.wire":
			ops := newYcsbWireOps(ycsbWireSizing(false), seed, c)
			for i := 0; i < n; i++ {
				o := ops.next()
				put(b2u(o.read), o.key, uint64(o.delta))
			}
		case "ycsb.durable":
			p := ycsbDurableSizing(false)
			ops := newDurableOps(p, seed, c, callers)
			slots := make([]int, p.TxnPuts)
			for i := 0; i < n; i++ {
				put(uint64(ops.next(slots)))
				for _, s := range slots {
					put(ops.key(s))
				}
			}
		case "scan.wire":
			ops := newScanOps(scanWireSizing(false), seed, c, callers)
			for i := 0; i < n; i++ {
				o := ops.next()
				put(b2u(o.scan), o.key)
			}
		case "recovery.replay":
			p := recoverySizing(false, 2)
			ops := newRecoveryOps(p, seed)
			keys, stamps := make([]uint64, p.WritesPerTxn), make([]uint64, p.WritesPerTxn)
			for i := 0; i < n; i++ {
				ops.next(keys, stamps)
				put(keys...)
				put(stamps...)
			}
		}
	}
	return h.Sum64()
}

func TestSeedDeterminesOps(t *testing.T) {
	for _, w := range workloads {
		a, b, c := opHash(w.Name, 1), opHash(w.Name, 1), opHash(w.Name, 2)
		if a != b {
			t.Errorf("%s: the same seed gave two op sequences", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", w.Name)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func TestManifestAgreesWithProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, defaultSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid metric or workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: manifest has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	for _, list := range []struct {
		what      string
		file, own []metricDef
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if !reflect.DeepEqual(list.file, list.own) {
			t.Errorf("%s: BENCHMARK.json and the program's table differ:\n file %v\n prog %v", list.what, list.file, list.own)
		}
		for _, d := range list.own {
			checkName(d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s: unit %q", d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: better %q", d.Name, d.Better)
			}
		}
	}
	setup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
}

// TestSmoke runs all five workloads, untraced and traced, at smoke size
// with verification on: every metric a run reports is there by name, the
// end-to-end ones are never zero, and nothing fails its checks.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runOne(config{workload: w.Name, seed: 7, seconds: 400 * time.Millisecond, trace: traced, smoke: true, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if r.failed != 0 || r.attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w.Name, traced, r.failed, r.attempted, r.problems)
			}
			var out strings.Builder
			r.print(&out)
			for _, d := range r.reported() {
				if !strings.Contains(out.String(), d.Name+" ") {
					t.Errorf("%s traced=%v: %s is not in the output", w.Name, traced, d.Name)
				}
				if v := r.metrics[d.Name]; !traced && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be zero", w.Name, d.Name, v)
				}
			}
			if traced {
				checkLayerSeparation(t, w.Name, r)
			}
		}
	}
}

func checkLayerSeparation(t *testing.T, workload string, r *run) {
	zero := func(names ...string) {
		for _, n := range names {
			if r.metrics[n] != 0 {
				t.Errorf("%s: %s = %v, want 0 (the layer takes no part in this workload)", workload, n, r.metrics[n])
			}
		}
	}
	switch workload {
	case "tpcc.embedded":
		zero("wal.bytes_per_txn", "wal.fsyncs_per_s", "client.self_us", "server.request_p50_us", "recovery.replay_s")
	case "ycsb.wire", "scan.wire":
		zero("wal.bytes_per_txn", "wal.fsyncs_per_s", "server.release_lag_p50_ms", "recovery.replay_s")
	case "ycsb.durable":
		zero("recovery.replay_s", "index.scan_ns_per_row")
		if r.metrics["wal.bytes_per_txn"] == 0 || r.metrics["server.release_lag_p50_ms"] == 0 {
			t.Errorf("ycsb.durable: the WAL and the release queue did no work: %v", r.metrics)
		}
	case "recovery.replay":
		zero("client.self_us", "server.request_p50_us", "core.exec_ns")
		if r.metrics["recovery.replay_s"] == 0 || r.metrics["wal.bytes_per_txn"] == 0 {
			t.Errorf("recovery.replay: recovery did no work: %v", r.metrics)
		}
	}
}
