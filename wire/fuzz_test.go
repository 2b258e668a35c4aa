package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"silo/internal/obs"
	"silo/internal/trace"
)

// statsSeed builds a small but structurally complete metrics snapshot —
// counter, labeled counter, gauge, and a histogram with populated buckets
// — so the fuzzer starts from a valid STATSR body.
func statsSeed() *obs.Snapshot {
	var h obs.Histogram
	h.Observe(0)
	h.Observe(3)
	h.Observe(1 << 20)
	snap := &obs.Snapshot{}
	snap.Counter("silo_core_commits_total", "", "", 42)
	snap.Counter("silo_core_aborts_total", "reason", "read_validation", 7)
	snap.Gauge("silo_wal_durable_epoch", "", "", 11)
	snap.Histogram("silo_wal_fsync_ns", "", "", h.Snapshot())
	return snap
}

// FuzzDecodeFrame feeds arbitrary payloads to both decoders: no input may
// panic, over-allocate past its own size, or decode into a message that
// fails to re-encode and decode identically (for the request direction,
// which the server trusts enough to execute).
func FuzzDecodeFrame(f *testing.F) {
	// Seed with one valid frame of every kind so the fuzzer starts from
	// structurally interesting inputs.
	seedReqs := []Request{
		{Ops: []Op{{Kind: KindGet, Table: "t", Key: []byte("k")}}},
		{Ops: []Op{{Kind: KindPut, Table: "t", Key: []byte("k"), Value: []byte("v")}}},
		{Ops: []Op{{Kind: KindInsert, Table: "t", Key: []byte("k"), Value: []byte("v")}}},
		{Ops: []Op{{Kind: KindDelete, Table: "t", Key: []byte("k")}}},
		{Ops: []Op{{Kind: KindScan, Table: "t", Key: []byte("a"), HasHi: true, Hi: []byte("z"), Limit: 7}}},
		{Ops: []Op{{Kind: KindAdd, Table: "t", Key: []byte("k"), Delta: -1}}},
		{Txn: true, Ops: []Op{
			{Kind: KindAdd, Table: "t", Key: []byte("a"), Delta: 1},
			{Kind: KindGet, Table: "t", Key: []byte("b")},
		}},
		{Ops: []Op{{Kind: KindCreateIndex, Index: "ix", Table: "t", Unique: true, Segs: []IndexSeg{
			{FromValue: true, Off: 4, Len: 8},
			{Off: 0, Len: 2},
		}}}},
		{Ops: []Op{{Kind: KindCreateIndex, Index: "cov", Table: "t", Segs: []IndexSeg{
			{FromValue: true, Off: 0, Len: 4},
		}, Incs: []IndexSeg{
			{FromValue: true, Off: 8, Len: 8},
			{Off: 0, Len: 1},
		}}}},
		{Ops: []Op{{Kind: KindIScan, Index: "ix", Key: []byte("a"), HasHi: true, Hi: []byte("z"), Limit: 9, Snapshot: true}}},
		{Ops: []Op{{Kind: KindIScan, Index: "ix", Key: []byte("a"), Limit: 0}}},
		{Ops: []Op{{Kind: KindIScan, Index: "cov", Key: []byte("a"), Limit: 3, Covering: true}}},
		{Ops: []Op{{Kind: KindIScan, Index: "cov", Key: []byte("a"), HasHi: true, Hi: []byte("b"), Snapshot: true, Covering: true}}},
		// Transform segments: byte-reversed, inverted, and composed — the
		// wire-expressible form of TPC-C's order_cust index.
		{Ops: []Op{{Kind: KindCreateIndex, Index: "oc", Table: "oorder", Unique: true, Segs: []IndexSeg{
			{Off: 0, Len: 8},
			{FromValue: true, Off: 0, Len: 4, Xform: XformReverse},
			{Off: 8, Len: 4, Xform: XformInvert},
		}}}},
		{Ops: []Op{{Kind: KindCreateIndex, Index: "rx", Table: "t", Segs: []IndexSeg{
			{FromValue: true, Off: 2, Len: 2, Xform: XformReverse | XformInvert},
		}, Incs: []IndexSeg{
			{FromValue: true, Off: 0, Len: 1, Xform: XformInvert},
		}}}},
		{Ops: []Op{{Kind: KindDropIndex, Index: "ix"}}},
		{Ops: []Op{{Kind: KindSchema}}},
		{Ops: []Op{{Kind: KindStats}}},
		{Txn: true, Trace: true, Ops: []Op{
			{Kind: KindGet, Table: "t", Key: []byte("a")},
			{Kind: KindPut, Table: "t", Key: []byte("a"), Value: []byte("v")},
		}},
	}
	for i := range seedReqs {
		frame, err := AppendRequest(nil, &seedReqs[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	seedResps := []Response{
		{Kind: KindOK},
		{Kind: KindValue, Value: []byte("v")},
		Err(CodeConflict, "conflict"),
		{Kind: KindScanR, Pairs: []KV{{Key: []byte("k"), Value: []byte("v")}}},
		{Kind: KindTxnR, Results: []TxnResult{{HasValue: true, Value: []byte("v")}, {}}},
		{Kind: KindIScanR, Entries: []IndexEntry{
			{SK: []byte("sk"), PK: []byte("pk"), Value: []byte("row")},
			{SK: []byte(""), PK: []byte("p"), Value: nil},
		}},
		{Kind: KindSchemaR, Schema: &Schema{
			Tables: []SchemaTable{{ID: 1, Name: "t"}, {ID: 2, Name: "ix"}},
			Indexes: []SchemaIndex{
				{Name: "ix", Table: "t", Unique: true, Segs: []IndexSeg{
					{FromValue: true, Off: 0, Len: 4, Xform: XformReverse},
				}},
				{Name: "cov", Table: "t", Segs: []IndexSeg{
					{Off: 0, Len: 2, Xform: XformInvert},
				}, Incs: []IndexSeg{{FromValue: true, Off: 4, Len: 8}}},
				{Name: "opq", Table: "t", Opaque: true},
			},
		}},
		{Kind: KindStatsR, Stats: statsSeed()},
		{Kind: KindTraceR, Spans: &trace.Spans{
			Queue: 100, Exec: 2000, Validate: 300, Log: 40, Fsync: 50000, Respond: 6,
			Retries: 1, TID: 0x1234,
		}, Results: []TxnResult{{HasValue: true, Value: []byte("v")}, {}}},
	}
	for i := range seedResps {
		frame, err := AppendResponse(nil, &seedResps[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	// The frames a server actually sends for scans come from the streaming
	// encoder, not AppendResponse.
	for _, page := range scanPages(rand.New(rand.NewSource(5)))[:12] {
		frame, err := streamScan(nil, &page, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}

	var sc DecodeScratch
	var into Request
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload)
		if err == nil {
			// Anything that decodes must re-encode and decode to the same
			// frame: the decoder and encoder agree on the grammar.
			frame, err := AppendRequest(nil, &req)
			if err != nil {
				t.Fatalf("decoded request does not re-encode: %v (%+v)", err, req)
			}
			if !bytes.Equal(frame[4:], payload) {
				t.Fatalf("re-encode mismatch:\n in  %x\n out %x", payload, frame[4:])
			}
		}
		// The scratch-reusing decoder must agree with the allocating one
		// bit for bit — same error/success, same decoded request — even
		// with the scratch carrying state from every previous input.
		ierr := DecodeRequestInto(payload, &into, &sc)
		if (err == nil) != (ierr == nil) {
			t.Fatalf("DecodeRequestInto err = %v, DecodeRequest err = %v", ierr, err)
		}
		if err == nil && !reflect.DeepEqual(req, into) {
			t.Fatalf("DecodeRequestInto mismatch:\n got %+v\nwant %+v", into, req)
		}
		_, _ = DecodeResponse(payload)
	})
}
