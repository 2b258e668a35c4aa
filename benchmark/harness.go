package main

import (
	"math"
	"slices"
	"sync"
	"time"

	"silo"
)

// window is the length of one throughput window. txn_per_s is the median
// of the rates of the whole windows of the measured interval, so a stall
// (a GC mark phase, a noisy neighbour) that lands in one window moves the
// result far less than it would move a mean. A window's rate is its
// completions over the time from the last completion before the window to
// the last one inside it — the span those completions actually took —
// not over the nominal second: when completions come in bursts (every
// caller of ycsb.durable is released by the same group commit) the count
// per nominal second is quantized to whole bursts and says nothing about
// how long a burst takes to come round.
const window = time.Second

// opFunc issues one request for caller c and reports which of the
// workload's request kinds it was. With traced set the request goes
// through the tracing entry point, where it has one, and the server's span
// timeline comes back in sp (nil for requests that cannot be traced).
type opFunc func(c int, traced bool) (kind int, sp *silo.TxnSpans, err error)

// loadSpec describes one closed-loop load interval: callers goroutines
// each issue their next request only after the previous one returned.
type loadSpec struct {
	callers int
	warm    time.Duration // issued but not counted
	dur     time.Duration // measured
	kinds   int           // number of request kinds op may report
	traced  bool
	base    time.Time // origin of the span timestamps
	op      opFunc
}

// reqSpan is one request of a traced interval: the caller-side request
// span and, when the request could travel as a TRACE frame, the
// server-side child spans that came back with the response.
type reqSpan struct {
	kind       int
	start, end time.Duration // since loadSpec.base
	staged     bool          // sp holds the server's stages
	sp         silo.TxnSpans
}

func (r *reqSpan) self() time.Duration { return r.end - r.start - r.sp.Total() }

type loadResult struct {
	perWindow []float64 // completions per second in each whole window
	lat       [][]int64 // per kind: caller-observed ns, sorted
	attempted int64     // requests issued, warm-up included
	failed    int64     // requests that returned an error
	firstErr  error
	reqs      []reqSpan
}

// runLoad drives spec.op from spec.callers goroutines for warm+dur and
// returns what the callers observed during dur. A request belongs to the
// measured interval when it completes inside it.
func runLoad(spec loadSpec) loadResult {
	// Slot 0 is the window before the measured interval (the end of
	// warm-up), kept only for the time of its last completion.
	type tally struct {
		count     []int64
		last      []time.Duration // since measureFrom, of the window's last completion
		lat       [][]int64
		attempted int64
		failed    int64
		firstErr  error
		reqs      []reqSpan
	}
	nWin := int(spec.dur / window)
	if nWin < 1 {
		nWin = 1
	}
	tallies := make([]tally, spec.callers)
	begin := time.Now()
	measureFrom := begin.Add(spec.warm)
	end := measureFrom.Add(spec.dur)

	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			t.count = make([]int64, nWin+1)
			t.last = make([]time.Duration, nWin+1)
			t.lat = make([][]int64, spec.kinds)
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				kind, sp, err := spec.op(c, spec.traced)
				t1 := time.Now()
				t.attempted++
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
					continue
				}
				at := t1.Sub(measureFrom)
				if at >= -window && at < time.Duration(nWin)*window {
					slot := int((at + window) / window)
					t.count[slot]++
					t.last[slot] = at
				}
				if at < 0 || !t1.Before(end) {
					continue
				}
				t.lat[kind] = append(t.lat[kind], int64(t1.Sub(t0)))
				if spec.traced {
					q := reqSpan{kind: kind, start: t0.Sub(spec.base), end: t1.Sub(spec.base), staged: sp != nil}
					if sp != nil {
						q.sp = *sp
					}
					t.reqs = append(t.reqs, q)
				}
			}
		}(c)
	}
	wg.Wait()

	res := loadResult{lat: make([][]int64, spec.kinds)}
	count := make([]int64, nWin+1)
	last := make([]time.Duration, nWin+1)
	for i := range tallies {
		t := &tallies[i]
		for s, n := range t.count {
			count[s] += n
			if n > 0 && (count[s] == n || t.last[s] > last[s]) {
				last[s] = t.last[s]
			}
		}
		for k := range t.lat {
			res.lat[k] = append(res.lat[k], t.lat[k]...)
		}
		res.attempted += t.attempted
		res.failed += t.failed
		if res.firstErr == nil {
			res.firstErr = t.firstErr
		}
		res.reqs = append(res.reqs, t.reqs...)
	}
	for k := range res.lat {
		slices.Sort(res.lat[k])
	}
	res.perWindow = windowRates(count, last)
	return res
}

// windowRates turns per-slot completion counts and last-completion times
// (slot 0 being the window before the first measured one) into one rate
// per measured window. A window nothing completed in has rate 0; a window
// with no completion in the one before it is measured from its own start.
func windowRates(count []int64, last []time.Duration) []float64 {
	rates := make([]float64, len(count)-1)
	for s := 1; s < len(count); s++ {
		if count[s] == 0 {
			continue
		}
		from := time.Duration(s-1) * window // the window's own start
		if count[s-1] > 0 {
			from = last[s-1]
		}
		rates[s-1] = float64(count[s]) / (last[s] - from).Seconds()
	}
	return rates
}

// perSecond is the median window rate.
func (r *loadResult) perSecond() float64 { return median(r.perWindow) }

// allLat merges the per-kind latencies, sorted.
func (r *loadResult) allLat() []int64 {
	out := slices.Concat(r.lat...)
	slices.Sort(out)
	return out
}

// median of v (0 when empty); v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile reads the q-th quantile (nearest rank) from sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(rank, 0), len(sorted)-1)])
}

// tailQuantile is the percentile a sample of n supports: want when at
// least ten samples lie beyond it, else the highest quantile that still
// has ten beyond it, else the median.
func tailQuantile(n int, want float64) float64 {
	if float64(n)*(1-want) >= 10 {
		return want
	}
	if n >= 20 {
		return 1 - 10/float64(n)
	}
	return 0.5
}

// quartiles follows Python's statistics.quantiles(v, n=4) (the default
// exclusive method), which is what the acceptance rule for this benchmark
// is written against.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// usOf converts nanoseconds to microseconds.
func usOf(ns float64) float64 { return ns / 1e3 }
