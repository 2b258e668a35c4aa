package obs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestBucketMath(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 62, NumBuckets - 1}, {^uint64(0), NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for i := 0; i < NumBuckets-1; i++ {
		if lo, hi := bucketLower(i), BucketUpper(i); lo > hi {
			t.Errorf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if bucketOf(BucketUpper(i)) != i && BucketUpper(i) != 0 {
			t.Errorf("upper bound of bucket %d maps to bucket %d", i, bucketOf(BucketUpper(i)))
		}
	}
}

// TestQuantileAgainstSortedSample checks every estimated quantile lands
// inside the power-of-two bucket of the true sample quantile — the
// strongest guarantee a fixed-bucket histogram can make.
func TestQuantileAgainstSortedSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5000)
		samples := make([]uint64, n)
		var h Histogram
		for i := range samples {
			v := uint64(rng.Int63n(1 << uint(1+rng.Intn(40))))
			samples[i] = v
			h.Observe(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		snap := h.Snapshot()
		if snap.Count != uint64(n) {
			t.Fatalf("count = %d, want %d", snap.Count, n)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			// Reference rank uses the estimator's convention — the
			// ceil(q·n)-th smallest observation, 1-indexed — so the
			// estimate must land in exactly the true value's bucket
			// (interpolation never leaves the bucket holding that rank).
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			truth := samples[rank-1]
			est := snap.Quantile(q)
			if bucketOf(est) != bucketOf(truth) {
				t.Errorf("n=%d q=%g: estimate %d (bucket %d) vs true %d (bucket %d)",
					n, q, est, bucketOf(est), truth, bucketOf(truth))
			}
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := uint64(0); i < 100; i++ {
		a.Observe(i)
		b.Observe(i * 1000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Merge(sb)
	if merged.Count != 200 {
		t.Fatalf("merged count = %d, want 200", merged.Count)
	}
	if merged.Sum != sa.Sum+sb.Sum {
		t.Fatalf("merged sum = %d, want %d", merged.Sum, sa.Sum+sb.Sum)
	}
	var total uint64
	for _, c := range merged.Buckets {
		total += c
	}
	if total != 200 {
		t.Fatalf("merged bucket total = %d, want 200", total)
	}
}

// TestRecordSnapshotRace drives concurrent recorders against a
// snapshotting reader; under -race this proves the record and snapshot
// paths are free of data races (the CI race matrix runs this package).
func TestRecordSnapshotRace(t *testing.T) {
	var h Histogram
	var c Counter
	var g Gauge
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(uint64(rng.Int63n(1 << 30)))
				c.Inc()
				g.Set(uint64(rng.Int63()))
			}
		}(int64(w))
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var total uint64
		for _, b := range s.Buckets {
			total += b
		}
		// Observe bumps the count before the bucket and Snapshot reads
		// them in the reverse order, so this holds with no slack.
		if total > s.Count {
			t.Fatalf("bucket total %d exceeds count %d", total, s.Count)
		}
		_ = c.Load()
		_ = g.Load()
	}
	close(stop)
	wg.Wait()
}

func testSnapshot() *Snapshot {
	var h Histogram
	for i := uint64(0); i < 1000; i++ {
		h.Observe(i * i)
	}
	s := &Snapshot{}
	s.Counter("silo_core_commits_total", "", "", 42)
	s.Counter("silo_core_aborts_total", "reason", "read_validation", 7)
	s.Gauge("silo_wal_durable_lag_epochs", "", "", 2)
	s.Histogram("silo_wal_fsync_ns", "", "", h.Snapshot())
	s.Histogram("silo_server_request_ns", "op", "GET", h.Snapshot())
	return s
}

func TestBinaryRoundTrip(t *testing.T) {
	s := testSnapshot()
	enc := s.AppendBinary(nil)
	dec, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.Samples) != len(s.Samples) {
		t.Fatalf("decoded %d samples, want %d", len(dec.Samples), len(s.Samples))
	}
	for i := range s.Samples {
		if s.Samples[i] != dec.Samples[i] {
			t.Fatalf("sample %d differs:\n got %+v\nwant %+v", i, dec.Samples[i], s.Samples[i])
		}
	}
	// decode∘encode is the identity on canonical payloads.
	re := dec.AppendBinary(nil)
	if string(re) != string(enc) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

func TestBinaryTruncationRejected(t *testing.T) {
	enc := testSnapshot().AppendBinary(nil)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeSnapshot(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", cut, len(enc))
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := DecodeSnapshot(append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestBinaryMalformedRejected(t *testing.T) {
	bad := [][]byte{
		{},                      // empty
		{2, 0, 0, 0, 0},         // unknown version
		{1, 255, 255, 255, 255}, // absurd sample count
		{1, 0, 0, 0, 1, 9, 1, 'x', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown kind
		{1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},      // empty name
	}
	for i, b := range bad {
		if _, err := DecodeSnapshot(b); err == nil {
			t.Errorf("vector %d accepted", i)
		}
	}
	// Label value without key.
	s := &Snapshot{}
	s.Counter("x", "", "", 1)
	enc := s.AppendBinary(nil)
	// name "x" at offsets: [0]=ver [1:5]=n [5]=kind [6]=len [7]='x' [8]=lk len [9]=lv len
	enc[9] = 1
	enc = append(enc[:10], append([]byte{'v'}, enc[10:]...)...)
	if _, err := DecodeSnapshot(enc); err == nil {
		t.Error("label value without key accepted")
	}
	// Out-of-order histogram buckets.
	var h Histogram
	h.Observe(1)
	h.Observe(100)
	hs := &Snapshot{}
	hs.Histogram("h", "", "", h.Snapshot())
	henc := hs.AppendBinary(nil)
	// Swap the two (index, count) pairs after the bucket-count byte.
	nb := len(henc) - 2*9
	pair1 := append([]byte{}, henc[nb:nb+9]...)
	pair2 := append([]byte{}, henc[nb+9:]...)
	copy(henc[nb:], pair2)
	copy(henc[nb+9:], pair1)
	if _, err := DecodeSnapshot(henc); err == nil {
		t.Error("out-of-order buckets accepted")
	}
}

func TestPrometheusRender(t *testing.T) {
	var sb strings.Builder
	if err := testSnapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE silo_core_commits_total counter",
		"silo_core_commits_total 42",
		`silo_core_aborts_total{reason="read_validation"} 7`,
		"# TYPE silo_wal_fsync_ns histogram",
		`silo_wal_fsync_ns_bucket{le="+Inf"} 1000`,
		"silo_wal_fsync_ns_count 1000",
		`silo_server_request_ns_bucket{op="GET",le="+Inf"} 1000`,
		`silo_server_request_ns_count{op="GET"} 1000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

func TestExpvarMap(t *testing.T) {
	m := testSnapshot().ExpvarMap()
	if m["silo_core_commits_total"] != uint64(42) {
		t.Errorf("commits = %v", m["silo_core_commits_total"])
	}
	if m["silo_core_aborts_total.read_validation"] != uint64(7) {
		t.Errorf("aborts = %v", m["silo_core_aborts_total.read_validation"])
	}
	h, ok := m["silo_wal_fsync_ns"].(map[string]any)
	if !ok || h["count"] != uint64(1000) {
		t.Errorf("hist = %v", m["silo_wal_fsync_ns"])
	}
}

func TestSnapshotSortAndGet(t *testing.T) {
	s := &Snapshot{}
	s.Counter("b", "", "", 2)
	s.Counter("a", "k", "z", 1)
	s.Counter("a", "k", "m", 3)
	s.Sort()
	if s.Samples[0].LabelValue != "m" || s.Samples[2].Name != "b" {
		t.Fatalf("unexpected order: %+v", s.Samples)
	}
	if got := s.Value("a", "z"); got != 1 {
		t.Fatalf("Value(a,z) = %d", got)
	}
	if s.Get("missing", "") != nil {
		t.Fatal("Get(missing) != nil")
	}
	if fmt.Sprint(s.Value("missing", "")) != "0" {
		t.Fatal("Value(missing) != 0")
	}
}
