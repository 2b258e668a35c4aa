package main

import (
	"math"
	"time"

	"silo"
)

// wireRun measures one wire workload: callers closed-loop goroutines
// spread over the environment's connections.
type wireRun struct {
	r       *run
	env     *wireEnv
	callers int
	kinds   []string // request-kind names, indexed by the kind op reports
	op      opFunc

	// scanOp is the server's opcode label of the workload's scan requests,
	// which TRACE frames cannot carry ("" when every request is a point
	// request); scanKind is their kind index. The workload's latency is
	// then the scans', and their client-side share is read from the
	// server's own histograms instead of from spans.
	scanOp   string
	scanKind int
	// sampleParked polls the release queue depth during the run.
	sampleParked bool

	// ref is the untraced half of a traced run, kept for the workload's
	// own figures.
	ref loadResult
}

func (w *wireRun) spec(warm, dur time.Duration, traced bool) loadSpec {
	return loadSpec{callers: w.callers, warm: warm, dur: dur, kinds: len(w.kinds), traced: traced, base: w.r.began, op: w.op}
}

// latency is the sorted latencies the workload's latency metrics cover.
func (w *wireRun) latency(res *loadResult) []int64 {
	if w.scanOp != "" {
		return res.lat[w.scanKind]
	}
	return res.allLat()
}

// measure runs the workload's load. Untraced, it is one warm-up and one
// measured interval that yield the end-to-end metrics. Traced, the
// interval is split: an untraced half, whose snapshot deltas and caller
// latencies give the counts, the server-side histograms and the
// workload-specific end-to-end figures, then a half in which every point
// request is a TRACE frame and yields a span timeline.
func (w *wireRun) measure() {
	r := w.r
	if !r.cfg.trace {
		res := runLoad(w.spec(r.size.warm, r.cfg.seconds, false))
		r.reportLoad(&res, w.latency(&res))
		r.mark("phase_load")
		return
	}

	half := r.cfg.seconds / 2
	var sampler *parkedSampler
	if w.sampleParked {
		sampler = sampleParked(w.env)
	}
	// The untraced half. Snapshots bracket warm-up too; the counts are
	// used as ratios, so the extra requests do not bias them.
	d := obsDelta{before: w.env.snapshot()}
	epoch0, t0 := w.env.db.Epoch(), time.Now()
	ref := runLoad(w.spec(r.size.warm, half, false))
	d.after, d.elapsed = w.env.snapshot(), time.Since(t0)
	epochs := float64(w.env.db.Epoch() - epoch0)
	r.addLoad(&ref)
	w.ref = ref

	// Half a second for the server to settle into TRACE frames.
	tr := runLoad(w.spec(500*time.Millisecond, half, true))
	r.addLoad(&tr)
	if sampler != nil {
		r.set("server.parked_max", sampler.finish())
	}

	lat := w.latency(&ref)
	p50 := quantile(lat, 0.5)
	r.reportTail(lat)
	r.set("epoch.advance_ms", ratio(float64(d.elapsed.Milliseconds()), epochs))
	r.set("trace.overhead_frac", 1-ratio(tr.perSecond(), ref.perSecond()))
	setEngineCounts(r, d)
	setServerCounts(r, d)

	// Spans: medians over the traced requests.
	children := spanMedians(tr.reqs)
	r.setN("core.exec_ns", children.exec, children.n)
	r.setN("core.validate_ns", children.validate, children.n)
	r.setN("core.log_ns", children.log, children.n)
	self := children.self
	served := children.total
	if w.scanOp != "" {
		// Scans: what the caller saw beyond what the server accounted for,
		// in means (the histograms' sums and counts are exact, their
		// quantiles only to within a power-of-two bucket — which is what
		// the ledger gap then shows).
		q := d.hist("silo_server_queue_ns", "")
		s := d.hist("silo_server_request_ns", w.scanOp)
		self = mean(ref.lat[w.scanKind]) - q.Mean() - s.Mean()
		served = float64(q.Quantile(0.5) + s.Quantile(0.5))
	}
	r.set("client.self_us", usOf(self))
	r.set("ledger_gap_frac", ratio(math.Abs(served+self-p50), p50))
	r.logSpans(w.kinds, tr.reqs)
	r.mark("phase_load")
}

type spanSummary struct {
	n                   int     // requests with stages
	exec, validate, log float64 // ns, medians
	total               float64 // Σ of the six child medians
	self                float64 // median of request − Σ children
}

// spanMedians summarises the requests that came back with stages.
func spanMedians(reqs []reqSpan) spanSummary {
	col := func(f func(*reqSpan) time.Duration) float64 {
		var v []float64
		for i := range reqs {
			if reqs[i].staged {
				v = append(v, float64(f(&reqs[i])))
			}
		}
		return median(v)
	}
	s := spanSummary{

		exec:     col(func(q *reqSpan) time.Duration { return q.sp.Exec }),
		validate: col(func(q *reqSpan) time.Duration { return q.sp.Validate }),
		log:      col(func(q *reqSpan) time.Duration { return q.sp.Log }),
		self:     col((*reqSpan).self),
	}
	for i := range reqs {
		if reqs[i].staged {
			s.n++
		}
	}
	s.total = s.exec + s.validate + s.log +
		col(func(q *reqSpan) time.Duration { return q.sp.Queue }) +
		col(func(q *reqSpan) time.Duration { return q.sp.Fsync }) +
		col(func(q *reqSpan) time.Duration { return q.sp.Respond })
	return s
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

var abortReasons = []string{"read_validation", "node_validation", "hook_poisoned", "explicit"}

// setEngineCounts reads the engine's counters over d: the core, index and
// WAL rows that are counts rather than timings, plus the WAL's own
// histograms. Without durability the WAL families are absent and read 0.
func setEngineCounts(r *run, d obsDelta) {
	commits := d.counter("silo_core_commits_total", "")
	var aborts float64
	for _, reason := range abortReasons {
		aborts += d.counter("silo_core_aborts_total", reason)
	}
	r.set("core.abort_frac", ratio(aborts, commits+aborts))
	r.set("core.reads_per_txn", ratio(d.counter("silo_core_reads_total", ""), commits))
	r.set("core.writes_per_txn", ratio(d.counter("silo_core_writes_total", ""), commits))

	for _, mode := range []string{"batched", "batched_streamed", "per_entry", "covering"} {
		r.set("index.scans_by_mode."+mode, d.counter("silo_index_scans_total", mode))
	}
	r.set("index.resolve_conflicts", d.counter("silo_index_resolve_conflicts_total", ""))

	r.set("wal.bytes_per_txn", ratio(d.counter("silo_wal_bytes_written_total", ""), d.counter("silo_wal_txns_logged_total", "")))
	fsync := d.hist("silo_wal_fsync_ns", "")
	r.setN("wal.fsync_p50_ms", float64(fsync.Quantile(0.50))/1e6, int(fsync.Count))
	r.setN("wal.fsync_p99_ms", float64(fsync.Quantile(0.99))/1e6, int(fsync.Count))
	r.set("wal.fsyncs_per_s", ratio(float64(fsync.Count), d.elapsed.Seconds()))
	r.set("wal.pass_bytes_p50", float64(d.hist("silo_wal_pass_bytes", "").Quantile(0.5)))
	r.set("wal.batch_txns_p50", float64(d.hist("silo_wal_batch_txns", "").Quantile(0.5)))
}

// setServerCounts reads the server's histograms over d.
func setServerCounts(r *run, d obsDelta) {
	queue := d.hist("silo_server_queue_ns", "")
	r.setN("server.queue_p50_us", usOf(float64(queue.Quantile(0.5))), int(queue.Count))
	var req silo.ObsHistSnapshot
	for i := range d.after.Samples {
		if m := &d.after.Samples[i]; m.Name == "silo_server_request_ns" {
			req.Merge(d.hist(m.Name, m.LabelValue))
		}
	}
	r.setN("server.request_p50_us", usOf(float64(req.Quantile(0.5))), int(req.Count))
	lag := d.hist("silo_server_release_lag_ns", "")
	r.setN("server.release_lag_p50_ms", float64(lag.Quantile(0.5))/1e6, int(lag.Count))
}
