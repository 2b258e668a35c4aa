package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
// manifest_test.go holds the file and these tables to each other.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the database sees. Every workload
// reports every one of them (with -trace 0), none is ever zero, and each
// carries the share of the parent's median by which it may get worse.
var endToEnd = []metricDef{
	{"txn_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics (reported with -trace 1, no
// bound). A metric a workload's layers take no part in reads 0 there —
// that absence is itself the evidence of layer separation. The first
// group are end-to-end figures that only some workloads have, or that a
// 2-core sandbox cannot hold to a bound; they are measured untraced.
var perLayer = []metricDef{
	{Name: "latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "insert_p50_us", Unit: "us", Better: "lower"},
	{Name: "replay_txn_per_s", Unit: "1/s", Better: "higher"},
	{Name: "recover_s", Unit: "s", Better: "lower"},
	{Name: "failed_frac", Unit: "frac", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},

	{Name: "client.self_us", Unit: "us", Better: "lower"},
	{Name: "wire.req_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.resp_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.queue_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.request_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.release_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.parked_max", Unit: "count", Better: "lower"},
	{Name: "core.exec_ns", Unit: "ns", Better: "lower"},
	{Name: "core.validate_ns", Unit: "ns", Better: "lower"},
	{Name: "core.log_ns", Unit: "ns", Better: "lower"},
	{Name: "core.abort_frac", Unit: "frac", Better: "lower"},
	{Name: "core.reads_per_txn", Unit: "count", Better: "lower"},
	{Name: "core.writes_per_txn", Unit: "count", Better: "lower"},
	{Name: "btree.get_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "index.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "index.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "index.scans_by_mode.batched", Unit: "count", Better: "higher"},
	{Name: "index.scans_by_mode.batched_streamed", Unit: "count", Better: "lower"},
	{Name: "index.scans_by_mode.per_entry", Unit: "count", Better: "lower"},
	{Name: "index.scans_by_mode.covering", Unit: "count", Better: "higher"},
	{Name: "index.resolve_conflicts", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "wal.fsync_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.fsync_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.fsyncs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "wal.pass_bytes_p50", Unit: "B", Better: "higher"},
	{Name: "wal.batch_txns_p50", Unit: "count", Better: "higher"},
	{Name: "epoch.advance_ms", Unit: "ms", Better: "lower"},
	{Name: "recovery.ckpt_load_s", Unit: "s", Better: "lower"},
	{Name: "recovery.replay_s", Unit: "s", Better: "lower"},
	{Name: "recovery.replay_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "recovery.txns_skipped", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "ledger_gap_frac", Unit: "frac", Better: "lower"},
}

// run is one execution of one workload: its inputs, and the metrics and
// verification tallies it accumulates.
type run struct {
	cfg    config
	procs  int // W: GOMAXPROCS, engine workers and connections
	size   sizing
	params any            // the workload's sizing, as recorded in the output
	notes  map[string]any // what the run found out about itself (e.g. which tail quantile the sample supported)

	metrics   map[string]float64
	samples   map[string]int // sample count behind a timing, where it has one
	attempted int64
	failed    int64
	problems  []string

	spans   []spanLine
	nextReq int // next request identifier in the span file
	began   time.Time
	marked  time.Time // end of the last phase noted by mark
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) note(key string, v any) { r.notes[key] = v }

// mark notes how long the phase that just ended took, so the run header
// accounts for the whole wall time of a run and not only the measured part.
func (r *run) mark(phase string) {
	now := time.Now()
	r.notes[phase+"_s"] = now.Sub(r.marked).Seconds()
	r.marked = now
}

// setN records a timing together with the number of samples behind it.
func (r *run) setN(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// measureHeap records live_heap_mb: the heap still reachable after a
// collection, taken when the load has ended and before verification reads
// the database back. It is the memory the database (and the benchmark's own
// samples) holds, and unlike the resident-set peak it does not depend on
// where in a GC cycle the process happened to stand.
func (r *run) measureHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("live_heap_mb", float64(ms.HeapAlloc)/(1<<20))
}

// check counts one verification: a failed one is counted into
// failed/attempted exactly like a request that returned an error.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// addLoad folds a load interval's request tallies into the run's.
func (r *run) addLoad(l *loadResult) {
	r.attempted += l.attempted
	r.failed += l.failed
	if l.firstErr != nil && len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf("%d requests failed, first: %v", l.failed, l.firstErr))
	}
}

// reportLoad sets what every untraced load interval yields: throughput,
// median latency over lat (sorted), and the heap left when it ended.
func (r *run) reportLoad(l *loadResult, lat []int64) {
	r.addLoad(l)
	rates := make([]int, len(l.perWindow))
	for i, v := range l.perWindow {
		rates[i] = int(v)
	}
	r.note("window_rates", rates)
	r.set("txn_per_s", l.perSecond())
	r.setN("latency_p50_us", usOf(quantile(lat, 0.5)), len(lat))
	r.measureHeap()
}

// reportTail sets latency_p99_us from lat (sorted), at the quantile the
// sample supports.
func (r *run) reportTail(lat []int64) {
	tail := tailQuantile(len(lat), 0.99)
	r.setN("latency_p99_us", usOf(quantile(lat, tail)), len(lat))
	r.note("latency_tail_quantile", tail)
}

// reported is the metric list this run prints: end-to-end untraced,
// per-layer traced.
func (r *run) reported() []metricDef {
	if r.cfg.trace {
		return perLayer
	}
	return endToEnd
}

// print writes every reported metric by name with its unit.
func (r *run) print(w io.Writer) {
	for _, d := range r.reported() {
		line := fmt.Sprintf("%-38s %16.4f %s", d.Name, r.metrics[d.Name], d.Unit)
		if n, ok := r.samples[d.Name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
}
