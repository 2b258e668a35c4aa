package main

import (
	"runtime"
	"time"

	"silo/internal/btree"
	"silo/internal/record"
	"silo/internal/tid"
	"silo/internal/workload/ycsb"
	"silo/wire"
)

// The probes price a layer from outside: the benchmark calls the layer's
// public functions on data of the workload's size and shape and records a
// span around the calls. They run after the load, on an otherwise idle
// process.

// probeBtree times the concurrent B+-tree alone on n 8-byte big-endian
// keys (the key shape of every workload here; TPC-C's composite keys are
// two such words at most): InsertIfAbsent while building the tree in a
// scattered order, then Get on uniform keys, then 100-row scans.
func probeBtree(r *run, n int, seed uint64) {
	const gets, scans, scanLen = 200_000, 2000, 100
	rng := ycsb.NewRNG(seed ^ 0xb7ee)
	tr := btree.New()
	word := tid.Make(1, 1).WithLatest(true)
	val := []byte{1}
	var kb []byte

	// A stride coprime to n visits every key once, out of order.
	stride := n/2 + 1
	for gcd(stride, n) != 1 {
		stride++
	}
	start := time.Now()
	for i, k := 0, 0; i < n; i, k = i+1, (k+stride)%n {
		kb = ycsb.Key(uint64(k), kb)
		tr.InsertIfAbsent(kb, record.New(word, val))
	}
	d := time.Since(start)
	r.span("btree.insert", start, d)
	r.setN("btree.insert_ns", float64(d)/float64(n), n)

	start = time.Now()
	for i := 0; i < gets; i++ {
		kb = ycsb.Key(uint64(rng.Intn(n)), kb)
		tr.Get(kb)
	}
	d = time.Since(start)
	r.span("btree.get", start, d)
	r.setN("btree.get_ns", float64(d)/gets, gets)

	rows := 0
	start = time.Now()
	for i := 0; i < scans; i++ {
		kb = ycsb.Key(uint64(rng.Intn(n)), kb)
		left := scanLen
		tr.Scan(kb, nil, nil, func([]byte, *record.Record) bool {
			rows++
			left--
			return left > 0
		})
	}
	d = time.Since(start)
	r.span("btree.scan", start, d)
	r.setN("btree.scan_ns_per_row", ratio(float64(d), float64(rows)), rows)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// codecCase is one request/response pair of a workload's traffic and its
// share of it.
type codecCase struct {
	share float64
	req   wire.Request
	resp  wire.Response
}

// probeWire times the codec on the workload's own frames, as the two ends
// use it: AppendRequest (client) + DecodeRequestInto (server), and
// AppendResponse (server) + DecodeResponse (client). The results are the
// share-weighted means; allocations are counted over both directions.
func probeWire(r *run, rounds int, cases []codecCase) {
	var reqNs, respNs, allocs float64
	var sc wire.DecodeScratch
	var dec wire.Request
	var buf []byte
	var ms runtime.MemStats
	for _, c := range cases {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs

		start := time.Now()
		for i := 0; i < rounds; i++ {
			buf, _ = wire.AppendRequest(buf[:0], &c.req)
			if err := wire.DecodeRequestInto(buf[4:], &dec, &sc); err != nil {
				r.check(false, "request does not decode: %v", err)
				return
			}
		}
		d := time.Since(start)
		r.span("wire.req_codec", start, d)
		reqNs += c.share * float64(d) / float64(rounds)

		start = time.Now()
		for i := 0; i < rounds; i++ {
			buf, _ = wire.AppendResponse(buf[:0], &c.resp)
			if _, err := wire.DecodeResponse(buf[4:]); err != nil {
				r.check(false, "response does not decode: %v", err)
				return
			}
		}
		d = time.Since(start)
		r.span("wire.resp_codec", start, d)
		respNs += c.share * float64(d) / float64(rounds)

		runtime.ReadMemStats(&ms)
		allocs += c.share * float64(ms.Mallocs-mallocs) / float64(rounds)
	}
	r.setN("wire.req_codec_ns", reqNs, rounds)
	r.setN("wire.resp_codec_ns", respNs, rounds)
	r.set("wire.allocs_per_op", allocs)
}
