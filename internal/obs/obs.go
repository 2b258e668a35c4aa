// Package obs is the observability floor for the engine: counters,
// gauges, and fixed-bucket latency histograms designed for zero cost on
// transaction hot paths.
//
// Cells are sharded per worker, so the owner updates its own cache line
// and monitoring sums shards on demand, and every cell is an atomic word,
// so a snapshot taken while
// workers run is race-clean (the race detector stays quiet during a live
// /metrics scrape) without being a consistent cut: each cell is read
// independently, and totals may straddle an in-flight transaction. That
// inconsistency is fine for monitoring and is the price of keeping
// locks, fences, and allocations off the commit path. Writers that own a
// shard pay one uncontended atomic add per event; nothing on the hot
// path allocates, takes a lock, or shares a cache line with another
// writer.
//
// Histograms use power-of-two buckets over uint64 values (nanoseconds
// for latencies, bytes or counts elsewhere): value v lands in bucket
// bits.Len64(v), so bucket i covers [2^(i-1), 2^i). Snapshots are plain
// arrays that merge by addition, which is what lets per-worker shards,
// per-logger shards, and even whole processes aggregate without
// coordination.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every Histogram: bucket 0
// holds zeros, bucket i holds values in [2^(i-1), 2^i), and the last
// bucket absorbs everything ≥ 2^62.
const NumBuckets = 64

// Counter is a monotonically increasing cell. It is safe for one owner
// to Add while any number of readers Load; per-worker shards keep the
// add uncontended.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a last-write-wins cell for instantaneous values (queue
// depths, epoch lag, bytes retained).
type Gauge struct {
	v atomic.Uint64
}

// Set stores the current value.
func (g *Gauge) Set(n uint64) { g.v.Store(n) }

// Add adjusts the value by delta (use with care from a single owner).
func (g *Gauge) Add(n uint64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() uint64 { return g.v.Load() }

// Histogram is a fixed power-of-two-bucket distribution of uint64
// values. Observe is one atomic add on the owner's shard plus two for
// count/sum bookkeeping; there are no locks and no allocations.
// Snapshot may run concurrently with Observe — it reads each cell
// independently (count, sum, and buckets may disagree by in-flight
// observations, which monitoring tolerates).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	i := bits.Len64(v) // 0 for v==0, else floor(log2(v))+1
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i; the last
// bucket's bound is math.MaxUint64.
func BucketUpper(i int) uint64 {
	if i >= NumBuckets-1 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// bucketLower returns the inclusive lower bound of bucket i.
func bucketLower(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// Observe records one value. The count is bumped before the bucket;
// Snapshot relies on that order.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveDuration records a duration given in nanoseconds; negative
// durations (clock retrograde) clamp to zero.
func (h *Histogram) ObserveDuration(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.Observe(uint64(ns))
}

// Snapshot captures the histogram's current contents. It reads in the
// reverse of Observe's order — buckets, then sum, then count — so every
// bucket hit it holds is also in Sum and Count even while recorders run:
// ΣBuckets ≤ Count always, and a quantile never ranks past the last
// bucket. (Count may run ahead by the observations in flight.)
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram; snapshots merge
// by addition, so per-shard copies aggregate into one distribution.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Merge adds o into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the arithmetic mean of observed values, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (q in [0,1]) by locating the
// bucket containing the target rank and interpolating linearly between
// its bounds. The estimate is always within the true value's
// power-of-two bucket, i.e. within a factor of two of the true sample
// quantile.
func (s HistSnapshot) Quantile(q float64) uint64 {
	total := uint64(0)
	for _, b := range s.Buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based, computed from the bucket
	// total rather than Count so a racy snapshot stays self-consistent.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	cum := uint64(0)
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		if cum+b >= rank {
			lo, hi := bucketLower(i), BucketUpper(i)
			if i == NumBuckets-1 {
				// Open-ended bucket: report its lower bound.
				return lo
			}
			// Position of the target rank within this bucket.
			frac := float64(rank-cum) / float64(b)
			return lo + uint64(frac*float64(hi-lo))
		}
		cum += b
	}
	return BucketUpper(NumBuckets - 1)
}
