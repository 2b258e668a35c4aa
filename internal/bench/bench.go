// Package bench is the shared measurement harness behind cmd/silo-bench and
// bench_test.go: fixed-duration concurrent runs with warmup, per-worker
// operation counting, and an optional latency histogram. Every figure and
// table of the paper's evaluation is regenerated through it.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"silo/internal/obs"
)

// WorkerFn executes operations until stop becomes true, reporting each
// completed operation through ops (and optionally aborts through aborts).
type WorkerFn func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64)

// Result is one measured configuration.
type Result struct {
	Name     string
	Workers  int
	Ops      uint64
	Aborts   uint64
	Duration time.Duration
	Lat      *obs.Histogram // nanoseconds; nil unless latency was sampled
}

// TPS returns operations per second.
func (r Result) TPS() float64 { return float64(r.Ops) / r.Duration.Seconds() }

// PerCore returns operations per second per worker.
func (r Result) PerCore() float64 { return r.TPS() / float64(r.Workers) }

// AbortRate returns aborts per second.
func (r Result) AbortRate() float64 { return float64(r.Aborts) / r.Duration.Seconds() }

// String formats the result as a table row.
func (r Result) String() string {
	s := fmt.Sprintf("%-28s workers=%-3d txns/sec=%-12.0f txns/sec/worker=%-10.0f aborts/sec=%.0f",
		r.Name, r.Workers, r.TPS(), r.PerCore(), r.AbortRate())
	if r.Lat != nil {
		lat := r.Lat.Snapshot()
		s += fmt.Sprintf("  lat p50=%v p99=%v", time.Duration(lat.Quantile(0.50)), time.Duration(lat.Quantile(0.99)))
	}
	return s
}

// Run starts one goroutine per worker, lets them warm up, measures for dur,
// then stops them. Counters are deltas over the measurement window only.
func Run(name string, workers int, warmup, dur time.Duration, fn WorkerFn) Result {
	var stop atomic.Bool
	ops := make([]atomic.Uint64, workers)
	aborts := make([]atomic.Uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, &stop, &ops[w], &aborts[w])
		}(w)
	}
	time.Sleep(warmup)
	var startOps, startAborts uint64
	for w := 0; w < workers; w++ {
		startOps += ops[w].Load()
		startAborts += aborts[w].Load()
	}
	start := time.Now()
	time.Sleep(dur)
	var endOps, endAborts uint64
	for w := 0; w < workers; w++ {
		endOps += ops[w].Load()
		endAborts += aborts[w].Load()
	}
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	return Result{
		Name:     name,
		Workers:  workers,
		Ops:      endOps - startOps,
		Aborts:   endAborts - startAborts,
		Duration: elapsed,
	}
}

// Median runs fn n times and returns the run with the median throughput
// (the paper reports medians of three consecutive runs).
func Median(n int, run func() Result) Result {
	if n <= 1 {
		return run()
	}
	rs := make([]Result, n)
	for i := range rs {
		rs[i] = run()
	}
	// selection by TPS
	for i := 0; i < len(rs); i++ {
		for j := i + 1; j < len(rs); j++ {
			if rs[j].TPS() < rs[i].TPS() {
				rs[i], rs[j] = rs[j], rs[i]
			}
		}
	}
	return rs[len(rs)/2]
}
