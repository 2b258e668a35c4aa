package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"silo/internal/obs"
)

// workerFn executes operations until stop becomes true, reporting each
// completed operation through ops (and optionally aborts through aborts).
type workerFn func(wid int, stop *atomic.Bool, ops, aborts *atomic.Uint64)

// result is one measured configuration.
type result struct {
	name     string
	workers  int
	ops      uint64
	aborts   uint64
	duration time.Duration
	lat      *obs.HistSnapshot // nanoseconds; nil unless latency was sampled
	note     string            // ycsb's traced-span line, from a newline on
}

// tps returns operations per second.
func (r result) tps() float64 { return float64(r.ops) / r.duration.Seconds() }

// abortRate returns aborts per second.
func (r result) abortRate() float64 { return float64(r.aborts) / r.duration.Seconds() }

// String formats the result as a table row.
func (r result) String() string {
	s := fmt.Sprintf("%-28s workers=%-3d txns/sec=%-12.0f txns/sec/worker=%-10.0f aborts/sec=%.0f",
		r.name, r.workers, r.tps(), r.tps()/float64(r.workers), r.abortRate())
	if r.lat != nil {
		s += fmt.Sprintf("  lat p50=%v p99=%v", time.Duration(r.lat.Quantile(0.50)), time.Duration(r.lat.Quantile(0.99)))
	}
	return s
}

// run starts one goroutine per worker, lets them warm up, measures for dur,
// then stops them. Counters are deltas over the measurement window only.
func run(name string, workers int, warmup, dur time.Duration, fn workerFn) result {
	var stop atomic.Bool
	// Each worker's counters fill a cache line of their own: workers that
	// shared one would pay for each other's counting on every operation.
	counts := make([]struct {
		ops, aborts atomic.Uint64
		_           [48]byte
	}, workers)
	var wg sync.WaitGroup
	for w := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, &stop, &counts[w].ops, &counts[w].aborts)
		}()
	}
	total := func() (o, a uint64) {
		for w := range counts {
			o += counts[w].ops.Load()
			a += counts[w].aborts.Load()
		}
		return o, a
	}
	time.Sleep(warmup)
	startOps, startAborts := total()
	start := time.Now()
	time.Sleep(dur)
	endOps, endAborts := total()
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	return result{
		name:     name,
		workers:  workers,
		ops:      endOps - startOps,
		aborts:   endAborts - startAborts,
		duration: elapsed,
	}
}

// median runs fn n times and returns the run with the median throughput
// (the paper reports medians of three consecutive runs).
func median(n int, fn func() result) result {
	if n <= 1 {
		return fn()
	}
	rs := make([]result, n)
	for i := range rs {
		rs[i] = fn()
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].tps() < rs[j].tps() })
	return rs[len(rs)/2]
}
