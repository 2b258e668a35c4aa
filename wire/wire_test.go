package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"silo/internal/trace"
)

func encodeReq(t *testing.T, r *Request) []byte {
	t.Helper()
	buf, err := AppendRequest(nil, r)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	return buf
}

func encodeResp(t *testing.T, r *Response) []byte {
	t.Helper()
	buf, err := AppendResponse(nil, r)
	if err != nil {
		t.Fatalf("AppendResponse: %v", err)
	}
	return buf
}

// frameThrough reads the frame back through ReadFrame, checking the length
// prefix is coherent, and returns the payload.
func frameThrough(t *testing.T, frame []byte) []byte {
	t.Helper()
	payload, err := ReadFrame(bytes.NewReader(frame), 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if want := frame[4:]; !bytes.Equal(payload, want) {
		t.Fatalf("ReadFrame payload = %x, want %x", payload, want)
	}
	return payload
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Ops: []Op{{Kind: KindGet, Table: "accounts", Key: []byte("alice")}}},
		{Ops: []Op{{Kind: KindDelete, Table: "t", Key: []byte{0}}}},
		{Ops: []Op{{Kind: KindPut, Table: "t", Key: []byte("k"), Value: []byte("hello world")}}},
		{Ops: []Op{{Kind: KindInsert, Table: "t", Key: []byte("k"), Value: nil}}},
		{Ops: []Op{{Kind: KindAdd, Table: "t", Key: []byte("k"), Delta: -42}}},
		{Ops: []Op{{Kind: KindScan, Table: "t", Key: []byte("a")}}},
		{Ops: []Op{{Kind: KindScan, Table: "t", Key: []byte("a"), HasHi: true, Hi: []byte("z"), Limit: 10}}},
		{Ops: []Op{{Kind: KindScan, Table: "t", Key: nil, HasHi: true, Hi: nil, Limit: 1}}},
		{Txn: true, Ops: []Op{
			{Kind: KindAdd, Table: "accounts", Key: []byte("a"), Delta: -5},
			{Kind: KindAdd, Table: "accounts", Key: []byte("b"), Delta: 5},
			{Kind: KindGet, Table: "audit", Key: []byte("x")},
			{Kind: KindInsert, Table: "audit", Key: []byte("y"), Value: []byte("v")},
			{Kind: KindDelete, Table: "audit", Key: []byte("z")},
			{Kind: KindPut, Table: "audit", Key: []byte("w"), Value: bytes.Repeat([]byte{7}, 300)},
		}},
		{Ops: []Op{{Kind: KindCreateIndex, Index: "by_city", Table: "users", Unique: false, Segs: []IndexSeg{
			{FromValue: true, Off: 0, Len: 4},
		}}}},
		{Ops: []Op{{Kind: KindCreateIndex, Index: "by_name", Table: "users", Unique: true, Segs: []IndexSeg{
			{Off: 0, Len: 8},
			{FromValue: true, Off: 12, Len: 16},
		}}}},
		{Ops: []Op{{Kind: KindCreateIndex, Index: "by_city_cov", Table: "users", Segs: []IndexSeg{
			{FromValue: true, Off: 0, Len: 4},
		}, Incs: []IndexSeg{
			{FromValue: true, Off: 4, Len: 8},
			{Off: 0, Len: 2},
		}}}},
		{Ops: []Op{{Kind: KindDropIndex, Index: "by_city"}}},
		{Ops: []Op{{Kind: KindIScan, Index: "by_city", Key: []byte("AMS")}}},
		{Ops: []Op{{Kind: KindIScan, Index: "by_city", Key: []byte("AMS"), HasHi: true, Hi: []byte("AMT"), Limit: 100, Snapshot: true}}},
		{Ops: []Op{{Kind: KindIScan, Index: "by_city_cov", Key: []byte("AMS"), Covering: true}}},
		{Ops: []Op{{Kind: KindIScan, Index: "by_city_cov", Key: nil, Limit: 5, Snapshot: true, Covering: true}}},
		{Txn: true, Trace: true, Ops: []Op{
			{Kind: KindGet, Table: "accounts", Key: []byte("alice")},
			{Kind: KindPut, Table: "accounts", Key: []byte("alice"), Value: []byte("v")},
		}},
		{Txn: true, Trace: true, Ops: []Op{{Kind: KindAdd, Table: "t", Key: []byte("k"), Delta: 1}}},
	}
	for i, want := range cases {
		frame := encodeReq(t, &want)
		got, err := DecodeRequest(frameThrough(t, frame))
		if err != nil {
			t.Fatalf("case %d: DecodeRequest: %v", i, err)
		}
		// Canonicalize empty slices for comparison: decoding yields empty
		// non-nil slices where encoding saw nil.
		canon := func(r *Request) {
			for j := range r.Ops {
				op := &r.Ops[j]
				if len(op.Key) == 0 {
					op.Key = nil
				}
				if len(op.Value) == 0 && (op.Kind == KindPut || op.Kind == KindInsert) {
					op.Value = []byte{}
				}
				if len(op.Hi) == 0 {
					op.Hi = nil
				}
			}
		}
		canon(&want)
		canon(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: round trip mismatch\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestDecodeRequestIntoReuse decodes a stream of different frames through
// one scratch, checking each result matches the allocating decoder: stale
// op fields from a previous (larger) frame must never leak into a later
// one, and interned table names must come back correct even past the
// cache's capacity.
func TestDecodeRequestIntoReuse(t *testing.T) {
	cases := []Request{
		// A wide TXN first so the scratch's op backing carries stale
		// values, bounds, and deltas into the smaller frames after it.
		{Txn: true, Ops: []Op{
			{Kind: KindPut, Table: "alpha", Key: []byte("k1"), Value: bytes.Repeat([]byte{1}, 64)},
			{Kind: KindAdd, Table: "beta", Key: []byte("k2"), Delta: -7},
			{Kind: KindInsert, Table: "gamma", Key: []byte("k3"), Value: []byte("v")},
			{Kind: KindDelete, Table: "delta", Key: []byte("k4")},
		}},
		{Ops: []Op{{Kind: KindGet, Table: "alpha", Key: []byte("k")}}},
		{Ops: []Op{{Kind: KindScan, Table: "beta", Key: []byte("a"), HasHi: true, Hi: []byte("z"), Limit: 3}}},
		{Ops: []Op{{Kind: KindScan, Table: "beta", Key: []byte("a")}}}, // no Hi: stale bound must clear
		// More distinct tables than the intern cache holds.
		{Txn: true, Ops: []Op{
			{Kind: KindGet, Table: "t1", Key: []byte("k")}, {Kind: KindGet, Table: "t2", Key: []byte("k")},
			{Kind: KindGet, Table: "t3", Key: []byte("k")}, {Kind: KindGet, Table: "t4", Key: []byte("k")},
			{Kind: KindGet, Table: "t5", Key: []byte("k")}, {Kind: KindGet, Table: "t6", Key: []byte("k")},
			{Kind: KindGet, Table: "t7", Key: []byte("k")}, {Kind: KindGet, Table: "t8", Key: []byte("k")},
			{Kind: KindGet, Table: "t9", Key: []byte("k")}, {Kind: KindGet, Table: "t1", Key: []byte("k")},
		}},
		{Ops: []Op{{Kind: KindIScan, Index: "ix", Key: []byte("a"), Limit: 9, Snapshot: true}}},
		{Ops: []Op{{Kind: KindStats}}},
		{Txn: true, Trace: true, Ops: []Op{{Kind: KindAdd, Table: "alpha", Key: []byte("k"), Delta: 1}}},
	}
	var sc DecodeScratch
	var got Request
	for i := range cases {
		frame := encodeReq(t, &cases[i])
		want, err := DecodeRequest(frame[4:])
		if err != nil {
			t.Fatalf("case %d: DecodeRequest: %v", i, err)
		}
		if err := DecodeRequestInto(frame[4:], &got, &sc); err != nil {
			t.Fatalf("case %d: DecodeRequestInto: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: scratch decode mismatch\n got %+v\nwant %+v", i, got, want)
		}
	}
	// A malformed frame must reset the request and leave the scratch usable.
	if err := DecodeRequestInto([]byte{0xFF, 1, 2}, &got, &sc); err == nil {
		t.Fatal("malformed frame decoded")
	}
	if !reflect.DeepEqual(got, Request{}) {
		t.Errorf("failed decode left request %+v", got)
	}
	frame := encodeReq(t, &cases[1])
	want, _ := DecodeRequest(frame[4:])
	if err := DecodeRequestInto(frame[4:], &got, &sc); err != nil {
		t.Fatalf("decode after failure: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decode after failure mismatch\n got %+v\nwant %+v", got, want)
	}
}

// TestReadFrameInto checks buffer reuse: a large-enough buffer is reused
// (same backing array), a too-small one is replaced, and the payload is
// identical either way.
func TestReadFrameInto(t *testing.T) {
	frame := encodeReq(t, &Request{Ops: []Op{{Kind: KindPut, Table: "t", Key: []byte("k"), Value: bytes.Repeat([]byte{9}, 100)}}})
	big := make([]byte, 0, 4096)
	got, err := ReadFrameInto(bytes.NewReader(frame), 0, big)
	if err != nil {
		t.Fatalf("ReadFrameInto: %v", err)
	}
	if !bytes.Equal(got, frame[4:]) {
		t.Fatalf("payload mismatch")
	}
	if &got[0] != &big[:1][0] {
		t.Error("large buffer was not reused")
	}
	small := make([]byte, 0, 8)
	got, err = ReadFrameInto(bytes.NewReader(frame), 0, small)
	if err != nil {
		t.Fatalf("ReadFrameInto (small buf): %v", err)
	}
	if !bytes.Equal(got, frame[4:]) {
		t.Fatalf("payload mismatch with small buffer")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Kind: KindOK},
		{Kind: KindValue, Value: []byte("payload")},
		{Kind: KindValue, Value: []byte{}},
		Err(CodeNotFound, "key not found"),
		Err(CodeProto, ""),
		{Kind: KindScanR, Pairs: []KV{
			{Key: []byte("a"), Value: []byte("1")},
			{Key: []byte("bb"), Value: bytes.Repeat([]byte{9}, 500)},
		}},
		{Kind: KindScanR, Pairs: nil},
		{Kind: KindTxnR, Results: []TxnResult{
			{HasValue: true, Value: []byte("got")},
			{},
			{HasValue: true, Value: []byte{}},
		}},
		{Kind: KindTxnR},
		{Kind: KindIScanR, Entries: []IndexEntry{
			{SK: []byte("AMS"), PK: []byte("u1"), Value: []byte("row-one")},
			{SK: []byte("AMS"), PK: []byte("u2"), Value: nil},
		}},
		{Kind: KindIScanR},
		{Kind: KindTraceR, Spans: &trace.Spans{
			Queue: 120, Exec: 84000, Validate: 910, Log: 3000,
			Fsync: 4 * time.Millisecond, Respond: 77,
			Retries: 2, TID: 0xDEADBEEF,
		}, Results: []TxnResult{
			{HasValue: true, Value: []byte("got")},
			{},
		}},
		{Kind: KindTraceR},
	}
	for i, want := range cases {
		frame := encodeResp(t, &want)
		got, err := DecodeResponse(frameThrough(t, frame))
		if err != nil {
			t.Fatalf("case %d: DecodeResponse: %v", i, err)
		}
		canon := func(r *Response) {
			if len(r.Value) == 0 && r.Kind == KindValue {
				r.Value = []byte{}
			}
			if len(r.Pairs) == 0 {
				r.Pairs = nil
			}
			if len(r.Results) == 0 {
				r.Results = nil
			}
			for j := range r.Results {
				if r.Results[j].HasValue && len(r.Results[j].Value) == 0 {
					r.Results[j].Value = []byte{}
				}
			}
			if len(r.Entries) == 0 {
				r.Entries = nil
			}
			for j := range r.Entries {
				if len(r.Entries[j].Value) == 0 {
					r.Entries[j].Value = nil
				}
			}
			// A nil span block encodes as all-zero spans, so it decodes
			// back to the zero Spans value.
			if r.Kind == KindTraceR && r.Spans == nil {
				r.Spans = &trace.Spans{}
			}
		}
		canon(&want)
		canon(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: round trip mismatch\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestAddTraceFsync: the in-place patch of an encoded TRACER's Fsync span
// agrees with the decoder for frames with and without results, touches no
// other byte's meaning, leaves anything that is not a whole TRACER alone,
// and saturates instead of wrapping past the largest time.Duration.
func TestAddTraceFsync(t *testing.T) {
	sp := trace.Spans{Queue: 1, Exec: 2, Validate: 3, Log: 4, Fsync: 5 * time.Microsecond, Respond: 6, Retries: 7, TID: 8}
	for _, results := range [][]TxnResult{nil, {{}, {HasValue: true, Value: []byte("value")}, {HasValue: true, Value: []byte{}}}} {
		frame := encodeResp(t, &Response{Kind: KindTraceR, Spans: &sp, Results: results})
		if !AddTraceFsync(frame, 40*time.Millisecond) {
			t.Fatalf("AddTraceFsync refused a TRACER with %d results", len(results))
		}
		AddTraceFsync(frame, -time.Second) // a clock anomaly adds nothing
		got, err := DecodeResponse(frame[4:])
		if err != nil {
			t.Fatalf("patched TRACER with %d results: %v", len(results), err)
		}
		want := sp
		want.Fsync += 40 * time.Millisecond
		if *got.Spans != want {
			t.Errorf("patched spans = %+v, want %+v", *got.Spans, want)
		}
		if len(got.Results) != len(results) || (len(results) > 1 && string(got.Results[1].Value) != "value") {
			t.Errorf("patch disturbed the results: %+v", got.Results)
		}

		AddTraceFsync(frame, 1<<63-1)
		AddTraceFsync(frame, 1<<63-1)
		if got, err := DecodeResponse(frame[4:]); err != nil || got.Spans.Fsync != 1<<63-1 {
			t.Errorf("overflowing patch decodes as %+v, %v; want Fsync saturated at max Duration", got.Spans, err)
		}
	}

	tracer := encodeResp(t, &Response{Kind: KindTraceR, Spans: &sp})
	for name, frame := range map[string][]byte{
		"TXNR":            encodeResp(t, &Response{Kind: KindTxnR, Results: make([]TxnResult, 80)}),
		"VALUE":           encodeResp(t, &Response{Kind: KindValue, Value: make([]byte, 100)}),
		"truncated spans": tracer[:4+1+trace.SpansEncodedLen-1],
		"empty":           nil,
	} {
		before := append([]byte(nil), frame...)
		if AddTraceFsync(frame, time.Second) || !bytes.Equal(frame, before) {
			t.Errorf("AddTraceFsync patched a %s frame", name)
		}
	}
}

func TestEncodeRejects(t *testing.T) {
	bad := []Request{
		{},                          // no ops
		{Ops: make([]Op, 2)},        // two ops without Txn
		{Txn: true},                 // empty txn
		{Ops: []Op{{Kind: KindOK}}}, // response kind as request
		{Txn: true, Ops: []Op{{Kind: KindScan, Table: "t"}}},            // scan in txn
		{Txn: true, Ops: []Op{{Kind: KindTxn}}},                         // nested txn
		{Ops: []Op{{Kind: KindGet, Table: strings.Repeat("x", 256)}}},   // long table
		{Ops: []Op{{Kind: KindGet, Key: bytes.Repeat([]byte{1}, 256)}}}, // long key

		// CREATE_INDEX / ISCAN shape violations: oversized or empty names
		// and bad specs are hard errors, never truncated.
		{Ops: []Op{{Kind: KindCreateIndex, Index: strings.Repeat("i", 256), Table: "t",
			Segs: []IndexSeg{{Off: 0, Len: 1}}}}}, // long index name
		{Ops: []Op{{Kind: KindCreateIndex, Index: "", Table: "t",
			Segs: []IndexSeg{{Off: 0, Len: 1}}}}}, // empty index name
		{Ops: []Op{{Kind: KindCreateIndex, Index: "i", Table: "",
			Segs: []IndexSeg{{Off: 0, Len: 1}}}}}, // empty table name
		{Ops: []Op{{Kind: KindCreateIndex, Index: "i", Table: "t"}}}, // no segments
		{Ops: []Op{{Kind: KindCreateIndex, Index: "i", Table: "t",
			Segs: make([]IndexSeg, MaxIndexSegs+1)}}}, // too many segments
		{Ops: []Op{{Kind: KindCreateIndex, Index: "i", Table: "t",
			Segs: []IndexSeg{{Off: 3, Len: 0}}}}}, // zero-length segment
		{Ops: []Op{{Kind: KindCreateIndex, Index: "i", Table: "t",
			Segs: []IndexSeg{{Off: 0, Len: 1}},
			Incs: make([]IndexSeg, MaxIndexSegs+1)}}}, // too many include segments
		{Ops: []Op{{Kind: KindCreateIndex, Index: "i", Table: "t",
			Segs: []IndexSeg{{Off: 0, Len: 1}},
			Incs: []IndexSeg{{FromValue: true, Off: 9, Len: 0}}}}}, // zero-length include segment
		{Ops: []Op{{Kind: KindDropIndex, Index: strings.Repeat("i", 256)}}},           // long index name
		{Ops: []Op{{Kind: KindDropIndex, Index: ""}}},                                 // empty index name
		{Txn: true, Ops: []Op{{Kind: KindDropIndex, Index: "i"}}},                     // drop-index in txn
		{Ops: []Op{{Kind: KindIScan, Index: strings.Repeat("i", 256)}}},               // long index name
		{Ops: []Op{{Kind: KindIScan, Index: ""}}},                                     // empty index name
		{Ops: []Op{{Kind: KindIScan, Index: "i", Key: bytes.Repeat([]byte{1}, 256)}}}, // long lo bound
		{Txn: true, Ops: []Op{{Kind: KindIScan, Index: "i"}}},                         // iscan in txn
		{Txn: true, Ops: []Op{{Kind: KindCreateIndex, Index: "i", Table: "t",
			Segs: []IndexSeg{{Off: 0, Len: 1}}}}}, // create-index in txn
	}
	for i := range bad {
		if _, err := AppendRequest(nil, &bad[i]); err == nil {
			t.Errorf("case %d: AppendRequest accepted invalid request", i)
		}
	}
	if _, err := AppendResponse(nil, &Response{Kind: KindGet}); err == nil {
		t.Error("AppendResponse accepted request kind")
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown kind", []byte{0x7f}},
		{"get truncated table", []byte{byte(KindGet), 5, 'a'}},
		{"get truncated key", []byte{byte(KindGet), 1, 't', 9, 'k'}},
		{"put value claims beyond payload", []byte{byte(KindPut), 1, 't', 1, 'k', 0xff, 0xff, 0xff, 0xff}},
		{"scan bad hasHi", []byte{byte(KindScan), 1, 't', 0, 2, 0, 0, 0, 0}},
		{"txn zero ops", []byte{byte(KindTxn), 0, 0}},
		{"txn op count beyond payload", []byte{byte(KindTxn), 0xff, 0xff, byte(KindGet), 0, 0}},
		{"txn scan op", []byte{byte(KindTxn), 0, 1, byte(KindScan), 1, 't', 0, 0, 0, 0, 0, 0}},
		{"trailing bytes", append([]byte{byte(KindGet), 1, 't', 1, 'k'}, 0)},
		{"create-index empty name", []byte{byte(KindCreateIndex), 0, 1, 't', 0, 1, 0, 0, 0, 0, 1}},
		{"create-index empty table", []byte{byte(KindCreateIndex), 1, 'i', 0, 0, 1, 0, 0, 0, 0, 1}},
		{"create-index bad unique", []byte{byte(KindCreateIndex), 1, 'i', 1, 't', 2, 1, 0, 0, 0, 0, 1}},
		{"create-index zero segs", []byte{byte(KindCreateIndex), 1, 'i', 1, 't', 0, 0}},
		{"create-index too many segs", []byte{byte(KindCreateIndex), 1, 'i', 1, 't', 0, 255}},
		{"create-index bad src", []byte{byte(KindCreateIndex), 1, 'i', 1, 't', 0, 1, 9, 0, 0, 0, 1}},
		{"create-index zero-len seg", []byte{byte(KindCreateIndex), 1, 'i', 1, 't', 0, 1, 0, 0, 0, 0, 0}},
		{"create-index truncated before include count",
			[]byte{byte(KindCreateIndex), 1, 'i', 1, 't', 0, 1, 0, 0, 0, 0, 1}},
		{"create-index too many include segs",
			[]byte{byte(KindCreateIndex), 1, 'i', 1, 't', 0, 1, 0, 0, 0, 0, 1, 255}},
		{"create-index truncated include seg",
			[]byte{byte(KindCreateIndex), 1, 'i', 1, 't', 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0}},
		{"create-index zero-len include seg",
			[]byte{byte(KindCreateIndex), 1, 'i', 1, 't', 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0}},
		{"create-index bad include src",
			[]byte{byte(KindCreateIndex), 1, 'i', 1, 't', 0, 1, 0, 0, 0, 0, 1, 1, 7, 0, 0, 0, 1}},
		{"drop-index truncated name", []byte{byte(KindDropIndex), 5, 'a'}},
		{"drop-index empty name", []byte{byte(KindDropIndex), 0}},
		{"drop-index missing count", []byte{byte(KindDropIndex)}},
		{"drop-index trailing bytes", []byte{byte(KindDropIndex), 1, 'i', 0}},
		{"drop-index in txn", []byte{byte(KindTxn), 0, 1, byte(KindDropIndex), 1, 'i'}},
		{"iscan empty name", []byte{byte(KindIScan), 0, 0, 0, 0, 0, 0, 0, 0}},
		{"iscan bad hasHi", []byte{byte(KindIScan), 1, 'i', 0, 7, 0, 0, 0, 0, 0}},
		{"iscan bad snapshot", []byte{byte(KindIScan), 1, 'i', 0, 0, 0, 0, 0, 0, 3, 0}},
		{"iscan truncated", []byte{byte(KindIScan), 1, 'i', 0, 0, 0, 0}},
		{"iscan truncated before covering", []byte{byte(KindIScan), 1, 'i', 0, 0, 0, 0, 0, 0, 1}},
		{"iscan bad covering", []byte{byte(KindIScan), 1, 'i', 0, 0, 0, 0, 0, 0, 1, 2}},
		{"trace zero ops", []byte{byte(KindTrace), 0, 0}},
		{"trace op count beyond payload", []byte{byte(KindTrace), 0xff, 0xff, byte(KindGet), 0, 0}},
		{"trace scan op", []byte{byte(KindTrace), 0, 1, byte(KindScan), 1, 't', 0, 0, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest(tc.payload); err == nil {
			t.Errorf("%s: DecodeRequest accepted malformed payload", tc.name)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", tc.name, err)
		}
	}

	respCases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"request kind", []byte{byte(KindGet)}},
		{"value claims beyond payload", []byte{byte(KindValue), 0xff, 0xff, 0xff, 0xff}},
		{"err truncated msg", []byte{byte(KindErr), 1, 0, 5, 'a'}},
		{"scan pair count beyond payload", []byte{byte(KindScanR), 0xff, 0xff, 0xff, 0xff}},
		{"txnr bad flag", []byte{byte(KindTxnR), 0, 1, 3}},
		{"iscanr entry count beyond payload", []byte{byte(KindIScanR), 0xff, 0xff, 0xff, 0xff}},
		{"iscanr truncated entry", []byte{byte(KindIScanR), 0, 0, 0, 1, 2, 's'}},
		{"trailing bytes", []byte{byte(KindOK), 0}},
		{"tracer truncated span block", append([]byte{byte(KindTraceR)}, make([]byte, trace.SpansEncodedLen-1)...)},
		{"tracer span overflows duration", append([]byte{byte(KindTraceR), 0x80, 0, 0, 0, 0, 0, 0, 0},
			append(make([]byte, trace.SpansEncodedLen-8), 0, 0)...)},
		{"tracer missing result count", append([]byte{byte(KindTraceR)}, make([]byte, trace.SpansEncodedLen)...)},
		{"tracer bad result flag", append(append([]byte{byte(KindTraceR)}, make([]byte, trace.SpansEncodedLen)...), 0, 1, 3)},
	}
	for _, tc := range respCases {
		if _, err := DecodeResponse(tc.payload); err == nil {
			t.Errorf("%s: DecodeResponse accepted malformed payload", tc.name)
		} else if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", tc.name, err)
		}
	}
}

func TestReadFrameLimits(t *testing.T) {
	// A *bufio.Reader takes the length prefix in place; any other reader
	// goes through io.ReadFull. Both must fail alike.
	for _, rd := range []struct {
		name string
		of   func([]byte) io.Reader
	}{
		{"plain", func(b []byte) io.Reader { return bytes.NewReader(b) }},
		{"bufio", func(b []byte) io.Reader { return bufio.NewReader(bytes.NewReader(b)) }},
	} {
		// Oversized length prefix is rejected without allocating the claim.
		if _, err := ReadFrame(rd.of([]byte{0xff, 0xff, 0xff, 0xff}), 1024); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("%s: oversized frame: err = %v, want ErrFrameTooLarge", rd.name, err)
		}
		// Zero-length frames are malformed.
		if _, err := ReadFrame(rd.of(make([]byte, 4)), 0); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: zero frame: err = %v, want ErrMalformed", rd.name, err)
		}
		// A truncated payload or length prefix reports unexpected EOF.
		for _, torn := range [][]byte{{0, 0, 0, 10, 1, 2, 3}, {0, 0}} {
			if _, err := ReadFrame(rd.of(torn), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s: truncated frame %x: err = %v, want ErrUnexpectedEOF", rd.name, torn, err)
			}
		}
		// Clean EOF at a frame boundary is io.EOF, so servers can distinguish
		// an orderly hangup from a torn frame.
		if _, err := ReadFrame(rd.of(nil), 0); err != io.EOF {
			t.Errorf("%s: empty stream: err = %v, want io.EOF", rd.name, err)
		}
	}
}

// TestReadFrameIntoAllocs: a frame read from a *bufio.Reader into a
// buffer that fits allocates nothing — the length prefix included.
func TestReadFrameIntoAllocs(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{Ops: []Op{{Kind: KindGet, Table: "t", Key: []byte("k")}}})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 128
	br := bufio.NewReader(bytes.NewReader(bytes.Repeat(frame, frames+1)))
	buf := make([]byte, len(frame))
	if n := testing.AllocsPerRun(frames, func() {
		if buf, err = ReadFrameInto(br, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadFrameInto allocates %.1f times per frame, want 0", n)
	}
}
