// Package wire defines the length-prefixed binary protocol spoken between
// silo servers (package server) and clients (package client).
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload; the first payload byte is the frame kind. Requests are either a
// single operation (GET, PUT, INSERT, DELETE, SCAN, ADD) or a TXN frame
// carrying a list of sub-operations executed as one serializable one-shot
// transaction. Responses arrive on each connection in request order, which
// is what makes pipelining possible without request IDs.
//
// Integers are big-endian throughout. Keys and table names are
// length-prefixed with one byte (the engine caps keys at 62 bytes); values
// with four. Decoding is zero-copy: byte-slice fields of decoded messages
// alias the payload buffer, so callers that reuse read buffers must copy
// what they keep.
//
// Wire layouts (after the frame-kind byte):
//
//	GET/DELETE  u8 tlen | table | u8 klen | key
//	PUT/INSERT  u8 tlen | table | u8 klen | key | u32 vlen | value
//	ADD         u8 tlen | table | u8 klen | key | u64 delta (two's complement)
//	SCAN        u8 tlen | table | u8 lolen | lo | u8 hasHi | [u8 hilen | hi] | u32 limit
//	CREATE_INDEX u8 ilen | index | u8 tlen | table | u8 unique | u8 nsegs |
//	            nsegs × (u8 src | u8 xform | u16 off | u16 len) | u8 nincs |
//	            nincs × (u8 src | u8 xform | u16 off | u16 len)
//	ISCAN       u8 ilen | index | u8 lolen | lo | u8 hasHi | [u8 hilen | hi] |
//	            u32 limit | u8 snapshot | u8 covering
//	TXN         u16 nops | nops × (u8 kind | body as above; SCAN, CREATE_INDEX
//	            and ISCAN excluded)
//	TRACE       identical to TXN; the server executes it traced and answers
//	            with TRACER instead of TXNR
//	SCHEMA      (empty)
//	STATS       (empty)
//
// CREATE_INDEX's nincs block is the covering include list: fixed-position
// row segments projected into every entry value. nincs 0 declares an
// ordinary (non-covering) index. An ISCAN with the covering flag set is
// served from entry values alone (its ISCANR values are the included
// fields, not full rows) and is rejected for non-covering indexes.
//
// A segment's xform byte selects transforms applied to the extracted
// bytes before they join the key: bit 0 reverses the bytes (a
// little-endian row field becomes a big-endian, tree-ordered key field),
// bit 1 complements them (ascending values sort descending — the
// most-recent-first trick). The bits compose (reverse first); other bits
// are rejected. SCHEMA asks the server for its schema catalog: the
// SCHEMAR response lists every table (id, name) and every index
// declaration — uniqueness, covering include list, key-spec segments with
// transforms, or an opaque marker for an index whose segments the frame
// cannot carry (an embedded declaration with offsets beyond u16).
//
//	OK          (empty)
//	VALUE       u32 vlen | value
//	ERR         u8 code | u16 mlen | msg
//	SCANR       u32 npairs | npairs × (u8 klen | key | u32 vlen | value)
//	SCHEMAR     u16 ntables | ntables × (u32 id | u8 nlen | name) |
//	            u16 nindexes | nindexes × (u8 ilen | index | u8 tlen | table |
//	            u8 flags (1 unique, 2 covering, 4 opaque) | u8 nsegs | segs |
//	            u8 nincs | incs)
//	ISCANR      u32 n | n × (u8 sklen | sk | u8 pklen | pk | u32 vlen | value)
//	TXNR        u16 nresults | nresults × (u8 hasValue | [u32 vlen | value])
//	TRACER      span block (internal/trace fixed binary form: six u64 stage
//	            nanosecond values, u64 tid, u32 retries) | TXNR body
//	STATSR      versioned metrics snapshot (internal/obs binary form: u8
//	            version | u32 count | count samples), decoded with the same
//	            strict validation as the rest of the grammar
//
// TRACE is the per-transaction tracing entry point: the same one-shot
// transaction a TXN frame carries, but executed with span capture. The
// TRACER response prefixes the TXNR result list with the transaction's
// span timeline — queue wait, statement execution across all OCC
// retries, commit validation, log handoff, group-commit fsync wait, and
// result assembly — plus the commit TID and the retry count.
//
// STATS asks the server for a metrics snapshot of every layer — commit and
// abort counters with reason breakdowns, per-table read/write totals,
// commit-phase and fsync latency histograms, group-commit batch sizes,
// index scan-resolution modes, checkpoint and recovery figures, and the
// server's own per-opcode latencies. The STATSR payload is the obs
// package's canonical binary snapshot, so one encoding serves the wire,
// the admin endpoint, and tooling alike.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"silo/internal/obs"
	"silo/internal/trace"
)

// Kind identifies a frame or TXN sub-operation.
type Kind byte

// Request frame kinds. KindScan and KindIScan are not valid inside a TXN
// frame (scans inside a multi-op transaction would make response frames
// unbounded; run them as single serializable SCAN/ISCAN requests instead),
// nor are KindCreateIndex and KindDropIndex (index DDL is not
// transactional).
const (
	KindGet         Kind = 0x01
	KindPut         Kind = 0x02
	KindInsert      Kind = 0x03
	KindDelete      Kind = 0x04
	KindScan        Kind = 0x05
	KindAdd         Kind = 0x06
	KindTxn         Kind = 0x07
	KindCreateIndex Kind = 0x08
	KindIScan       Kind = 0x09
	KindSchema      Kind = 0x0A
	KindDropIndex   Kind = 0x0B
	KindStats       Kind = 0x0C
	KindTrace       Kind = 0x0D

	// KindRequestMax is the highest assigned request kind. Per-opcode
	// tables (like the server's latency histograms) size from it, so it
	// must move whenever a request kind is added above it; the static
	// tests in this package and in package server enforce that every
	// named request kind fits below it.
	KindRequestMax = KindTrace
)

// Response frame kinds.
const (
	KindOK      Kind = 0x81
	KindValue   Kind = 0x82
	KindErr     Kind = 0x83
	KindScanR   Kind = 0x84
	KindTxnR    Kind = 0x85
	KindIScanR  Kind = 0x86
	KindSchemaR Kind = 0x87
	KindStatsR  Kind = 0x88
	KindTraceR  Kind = 0x89
)

func (k Kind) String() string {
	switch k {
	case KindGet:
		return "GET"
	case KindPut:
		return "PUT"
	case KindInsert:
		return "INSERT"
	case KindDelete:
		return "DELETE"
	case KindScan:
		return "SCAN"
	case KindAdd:
		return "ADD"
	case KindTxn:
		return "TXN"
	case KindCreateIndex:
		return "CREATE_INDEX"
	case KindIScan:
		return "ISCAN"
	case KindSchema:
		return "SCHEMA"
	case KindDropIndex:
		return "DROP_INDEX"
	case KindStats:
		return "STATS"
	case KindTrace:
		return "TRACE"
	case KindOK:
		return "OK"
	case KindValue:
		return "VALUE"
	case KindErr:
		return "ERR"
	case KindScanR:
		return "SCANR"
	case KindTxnR:
		return "TXNR"
	case KindIScanR:
		return "ISCANR"
	case KindSchemaR:
		return "SCHEMAR"
	case KindStatsR:
		return "STATSR"
	case KindTraceR:
		return "TRACER"
	}
	return fmt.Sprintf("Kind(0x%02x)", byte(k))
}

// ErrCode classifies an ERR response so clients can map it back to a
// sentinel error.
type ErrCode byte

const (
	CodeNotFound  ErrCode = 1 // key absent
	CodeKeyExists ErrCode = 2 // INSERT of a present key
	CodeConflict  ErrCode = 3 // transaction aborted after server-side retries
	CodeInvalid   ErrCode = 4 // key empty or too long
	CodeBadValue  ErrCode = 5 // ADD on a value shorter than 8 bytes
	CodeNoTable   ErrCode = 6 // unknown table (auto-creation disabled)
	CodeProto     ErrCode = 7 // malformed frame; server closes the connection
	CodeInternal  ErrCode = 8 // any other server-side failure
	CodeNoIndex   ErrCode = 9 // unknown index name
	// CodeIndexTable rejects a direct write to an index entry table (write
	// the primary table instead; the index maintains itself).
	CodeIndexTable ErrCode = 10
	// CodeNotCovering rejects a covering ISCAN of an index that was
	// declared without an include list.
	CodeNotCovering ErrCode = 11
)

func (c ErrCode) String() string {
	switch c {
	case CodeNotFound:
		return "not found"
	case CodeKeyExists:
		return "key exists"
	case CodeConflict:
		return "conflict"
	case CodeInvalid:
		return "invalid key"
	case CodeBadValue:
		return "bad value"
	case CodeNoTable:
		return "no such table"
	case CodeProto:
		return "protocol error"
	case CodeInternal:
		return "internal error"
	case CodeNoIndex:
		return "no such index"
	case CodeIndexTable:
		return "index entry table is not directly writable"
	case CodeNotCovering:
		return "index is not covering"
	}
	return fmt.Sprintf("ErrCode(%d)", byte(c))
}

// Protocol limits. MaxFrame is a default; servers and clients may configure
// their own cap, but frames must always fit in a u32 length prefix.
const (
	MaxFrame     = 16 << 20 // default maximum payload size
	MaxTableLen  = 255      // table names carry a 1-byte length
	MaxKeyLen    = 62       // engine limit, enforced server-side
	MaxTxnOps    = 65535    // TXN op count carries a 2-byte length
	MaxIndexName = 255      // index names carry a 1-byte length
	MaxIndexSegs = 16       // CREATE_INDEX key-spec segment cap
)

// ErrFrameTooLarge reports a frame whose length prefix exceeds the cap.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrMalformed reports a payload that does not parse. Decoding functions
// wrap it with detail; test with errors.Is.
var ErrMalformed = errors.New("wire: malformed frame")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// Transform bits of an IndexSeg's Xform byte.
const (
	// XformReverse reverses the segment's bytes (little-endian field →
	// big-endian key order).
	XformReverse uint8 = 1 << 0
	// XformInvert complements the segment's bytes (ascending values sort
	// descending).
	XformInvert uint8 = 1 << 1

	xformMask = XformReverse | XformInvert
)

// IndexSeg is one fixed-position segment of a CREATE_INDEX key spec: Len
// bytes at offset Off of the primary key (FromValue false) or the row
// value (FromValue true), passed through the Xform transforms; the
// secondary key is the concatenation of the segments.
type IndexSeg struct {
	FromValue bool
	Off, Len  uint16
	Xform     uint8
}

// IndexEntry is one resolved entry of an ISCANR response.
type IndexEntry struct {
	SK    []byte // secondary key
	PK    []byte // primary key
	Value []byte // primary row value
}

// Op is one operation: an entire single-op request, or one TXN sub-op.
type Op struct {
	Kind     Kind
	Table    string
	Key      []byte
	Value    []byte     // PUT, INSERT
	Delta    int64      // ADD
	Hi       []byte     // SCAN, ISCAN upper bound; nil means +inf when HasHi is false
	HasHi    bool       // SCAN, ISCAN: whether Hi is present
	Limit    uint32     // SCAN, ISCAN: max results returned; 0 means server default
	Index    string     // CREATE_INDEX, ISCAN: index name
	Unique   bool       // CREATE_INDEX
	Segs     []IndexSeg // CREATE_INDEX key spec
	Incs     []IndexSeg // CREATE_INDEX covering include list (nil: not covering)
	Snapshot bool       // ISCAN: read a consistent snapshot instead of serializable
	Covering bool       // ISCAN: serve included fields from entry values only
}

// SchemaTable is one table row of a SCHEMAR response.
type SchemaTable struct {
	ID   uint32
	Name string
}

// SchemaIndex is one index declaration of a SCHEMAR response. Opaque
// marks an index whose segments the frame cannot carry, an embedded
// declaration with offsets beyond u16 (Segs is then empty); Incs non-nil
// marks a covering index whose entry values carry those row segments.
type SchemaIndex struct {
	Name   string
	Table  string
	Unique bool
	Opaque bool
	Segs   []IndexSeg
	Incs   []IndexSeg
}

// Schema is a decoded SCHEMAR response: the server's schema catalog.
type Schema struct {
	Tables  []SchemaTable
	Indexes []SchemaIndex
}

// Request is a decoded request frame.
type Request struct {
	// Txn marks a multi-op one-shot transaction frame.
	Txn bool
	// Trace marks a TRACE frame: a transaction (Txn is set too) executed
	// with span capture and answered with TRACER.
	Trace bool
	// Ops holds the operations: exactly one unless Txn is set.
	Ops []Op
}

// KV is one key/value pair of a SCANR response.
type KV struct {
	Key   []byte
	Value []byte
}

// TxnResult is the per-op result of a committed TXN: GET and ADD ops carry
// a value, the rest do not.
type TxnResult struct {
	HasValue bool
	Value    []byte
}

// Response is a decoded response frame.
type Response struct {
	Kind    Kind
	Code    ErrCode       // ERR
	Msg     string        // ERR
	Value   []byte        // VALUE
	Pairs   []KV          // SCANR
	Results []TxnResult   // TXNR, TRACER
	Entries []IndexEntry  // ISCANR
	Schema  *Schema       // SCHEMAR
	Stats   *obs.Snapshot // STATSR (silo.ObsSnapshot for embedders)
	Spans   *trace.Spans  // TRACER span timeline
}

// Err builds an ERR response.
func Err(code ErrCode, msg string) Response {
	return Response{Kind: KindErr, Code: code, Msg: msg}
}

// ---------------------------------------------------------------------------
// Framing

// ReadFrame reads one length-prefixed frame from r and returns its payload
// in a fresh buffer. max caps the accepted payload size (0 means MaxFrame).
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	return ReadFrameInto(r, max, nil)
}

// ReadFrameInto is ReadFrame reusing buf's capacity for the payload when it
// suffices (a fresh buffer is allocated otherwise). The returned slice
// aliases buf on reuse, so the caller must not read the next frame into the
// same buffer while decoded views of this one are still live. From a
// *bufio.Reader the length is read in place, so a frame read into a
// buffer that fits allocates nothing.
func ReadFrameInto(r io.Reader, max int, buf []byte) ([]byte, error) {
	if max <= 0 {
		max = MaxFrame
	}
	n, err := readLength(r)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, malformed("empty frame")
	}
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	var payload []byte
	if uint64(cap(buf)) >= uint64(n) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// FrameBuffered reports whether the next frame is already complete in br,
// so reading it cannot block: both ends of a pipelined connection read a
// burst as every frame buffered behind the first. A length ReadFrame will
// refuse (zero, oversized) counts as buffered: the refusal needs no more
// bytes.
func FrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(br.Buffered()) >= 4+uint64(binary.BigEndian.Uint32(hdr))
}

// readLength reads a frame's 4-byte length prefix with io.ReadFull's
// errors: io.EOF before the first byte, io.ErrUnexpectedEOF after it. A
// header array handed to an io.Reader escapes to the heap, so a
// *bufio.Reader is read through Peek and Discard instead.
func readLength(r io.Reader) (uint32, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint32(hdr[:]), nil
	}
	hdr, err := br.Peek(4)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	br.Discard(4)
	return n, nil
}

// beginFrame reserves the 4-byte length prefix; endFrame fills it in.
func beginFrame(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0), len(dst)
}

func endFrame(dst []byte, at int) []byte {
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// ---------------------------------------------------------------------------
// Encoding

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

func appendOpBody(dst []byte, op *Op) ([]byte, error) {
	if len(op.Table) > MaxTableLen {
		return dst, fmt.Errorf("wire: table name %d bytes long", len(op.Table))
	}
	if len(op.Key) > 255 {
		return dst, fmt.Errorf("wire: key %d bytes long", len(op.Key))
	}
	dst = append(dst, byte(len(op.Table)))
	dst = append(dst, op.Table...)
	dst = append(dst, byte(len(op.Key)))
	dst = append(dst, op.Key...)
	switch op.Kind {
	case KindGet, KindDelete:
	case KindPut, KindInsert:
		dst = appendU32(dst, uint32(len(op.Value)))
		dst = append(dst, op.Value...)
	case KindAdd:
		dst = appendU64(dst, uint64(op.Delta))
	case KindScan:
		if op.HasHi {
			if len(op.Hi) > 255 {
				return dst, fmt.Errorf("wire: scan bound %d bytes long", len(op.Hi))
			}
			dst = append(dst, 1, byte(len(op.Hi)))
			dst = append(dst, op.Hi...)
		} else {
			dst = append(dst, 0)
		}
		dst = appendU32(dst, op.Limit)
	default:
		return dst, fmt.Errorf("wire: cannot encode op kind %v", op.Kind)
	}
	return dst, nil
}

// appendCreateIndex encodes a CREATE_INDEX body. Oversized or empty names
// and malformed key specs or include lists are rejected outright — never
// silently truncated — so what reaches the wire is exactly what was asked
// for.
func appendCreateIndex(dst []byte, op *Op) ([]byte, error) {
	if len(op.Index) == 0 || len(op.Index) > MaxIndexName {
		return dst, fmt.Errorf("wire: index name %d bytes long (1..%d allowed)", len(op.Index), MaxIndexName)
	}
	if len(op.Table) == 0 || len(op.Table) > MaxTableLen {
		return dst, fmt.Errorf("wire: table name %d bytes long (1..%d allowed)", len(op.Table), MaxTableLen)
	}
	if len(op.Segs) == 0 || len(op.Segs) > MaxIndexSegs {
		return dst, fmt.Errorf("wire: index spec with %d segments (1..%d allowed)", len(op.Segs), MaxIndexSegs)
	}
	if len(op.Incs) > MaxIndexSegs {
		return dst, fmt.Errorf("wire: index include list with %d segments (0..%d allowed)", len(op.Incs), MaxIndexSegs)
	}
	dst = append(dst, byte(len(op.Index)))
	dst = append(dst, op.Index...)
	dst = append(dst, byte(len(op.Table)))
	dst = append(dst, op.Table...)
	dst = append(dst, boolByte(op.Unique))
	var err error
	if dst, err = appendSegs(dst, op.Segs, "spec"); err != nil {
		return dst, err
	}
	return appendSegs(dst, op.Incs, "include list")
}

// appendSegs encodes a segment list as u8 count | count × (src, xform,
// off, len).
func appendSegs(dst []byte, segs []IndexSeg, what string) ([]byte, error) {
	dst = append(dst, byte(len(segs)))
	for i := range segs {
		seg := &segs[i]
		if seg.Len == 0 {
			return dst, fmt.Errorf("wire: index %s segment %d has zero length", what, i)
		}
		if seg.Xform&^xformMask != 0 {
			return dst, fmt.Errorf("wire: index %s segment %d has unknown transform bits 0x%x", what, i, seg.Xform)
		}
		dst = append(dst, boolByte(seg.FromValue), seg.Xform)
		dst = appendU16(dst, seg.Off)
		dst = appendU16(dst, seg.Len)
	}
	return dst, nil
}

// appendDropIndex encodes a DROP_INDEX body: u8 nameLen | name. Empty and
// oversized names are rejected outright, mirroring appendCreateIndex.
func appendDropIndex(dst []byte, op *Op) ([]byte, error) {
	if len(op.Index) == 0 || len(op.Index) > MaxIndexName {
		return dst, fmt.Errorf("wire: index name %d bytes long (1..%d allowed)", len(op.Index), MaxIndexName)
	}
	dst = append(dst, byte(len(op.Index)))
	dst = append(dst, op.Index...)
	return dst, nil
}

// appendIScan encodes an ISCAN body.
func appendIScan(dst []byte, op *Op) ([]byte, error) {
	if len(op.Index) == 0 || len(op.Index) > MaxIndexName {
		return dst, fmt.Errorf("wire: index name %d bytes long (1..%d allowed)", len(op.Index), MaxIndexName)
	}
	if len(op.Key) > 255 {
		return dst, fmt.Errorf("wire: iscan bound %d bytes long", len(op.Key))
	}
	dst = append(dst, byte(len(op.Index)))
	dst = append(dst, op.Index...)
	dst = append(dst, byte(len(op.Key)))
	dst = append(dst, op.Key...)
	if op.HasHi {
		if len(op.Hi) > 255 {
			return dst, fmt.Errorf("wire: iscan bound %d bytes long", len(op.Hi))
		}
		dst = append(dst, 1, byte(len(op.Hi)))
		dst = append(dst, op.Hi...)
	} else {
		dst = append(dst, 0)
	}
	dst = appendU32(dst, op.Limit)
	dst = append(dst, boolByte(op.Snapshot))
	dst = append(dst, boolByte(op.Covering))
	return dst, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// AppendRequest appends a complete frame (length prefix included) for r.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	dst, at := beginFrame(dst)
	if r.Txn || r.Trace {
		if len(r.Ops) == 0 || len(r.Ops) > MaxTxnOps {
			return dst[:at], fmt.Errorf("wire: txn with %d ops", len(r.Ops))
		}
		kind := KindTxn
		if r.Trace {
			kind = KindTrace
		}
		dst = append(dst, byte(kind))
		dst = appendU16(dst, uint16(len(r.Ops)))
		for i := range r.Ops {
			op := &r.Ops[i]
			switch op.Kind {
			case KindScan, KindTxn, KindCreateIndex, KindDropIndex, KindIScan:
				return dst[:at], fmt.Errorf("wire: %v not allowed inside txn", op.Kind)
			}
			dst = append(dst, byte(op.Kind))
			var err error
			if dst, err = appendOpBody(dst, op); err != nil {
				return dst[:at], err
			}
		}
		return endFrame(dst, at), nil
	}
	if len(r.Ops) != 1 {
		return dst[:at], fmt.Errorf("wire: single-op request with %d ops", len(r.Ops))
	}
	op := &r.Ops[0]
	var err error
	switch op.Kind {
	case KindGet, KindPut, KindInsert, KindDelete, KindScan, KindAdd:
		dst = append(dst, byte(op.Kind))
		dst, err = appendOpBody(dst, op)
	case KindCreateIndex:
		dst = append(dst, byte(op.Kind))
		dst, err = appendCreateIndex(dst, op)
	case KindDropIndex:
		dst = append(dst, byte(op.Kind))
		dst, err = appendDropIndex(dst, op)
	case KindIScan:
		dst = append(dst, byte(op.Kind))
		dst, err = appendIScan(dst, op)
	case KindSchema, KindStats:
		dst = append(dst, byte(op.Kind))
	default:
		return dst[:at], fmt.Errorf("wire: cannot encode request kind %v", op.Kind)
	}
	if err != nil {
		return dst[:at], err
	}
	return endFrame(dst, at), nil
}

// AppendResponse appends a complete frame (length prefix included) for r.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	dst, at := beginFrame(dst)
	dst = append(dst, byte(r.Kind))
	switch r.Kind {
	case KindOK:
	case KindValue:
		dst = appendU32(dst, uint32(len(r.Value)))
		dst = append(dst, r.Value...)
	case KindErr:
		msg := r.Msg
		if len(msg) > 65535 {
			msg = msg[:65535]
		}
		dst = append(dst, byte(r.Code))
		dst = appendU16(dst, uint16(len(msg)))
		dst = append(dst, msg...)
	case KindScanR:
		dst = appendU32(dst, uint32(len(r.Pairs)))
		for i := range r.Pairs {
			p := &r.Pairs[i]
			if len(p.Key) > 255 {
				return dst[:at], fmt.Errorf("wire: scan key %d bytes long", len(p.Key))
			}
			dst = append(dst, byte(len(p.Key)))
			dst = append(dst, p.Key...)
			dst = appendU32(dst, uint32(len(p.Value)))
			dst = append(dst, p.Value...)
		}
	case KindIScanR:
		dst = appendU32(dst, uint32(len(r.Entries)))
		for i := range r.Entries {
			e := &r.Entries[i]
			if len(e.SK) > 255 || len(e.PK) > 255 {
				return dst[:at], fmt.Errorf("wire: index entry keys %d/%d bytes long", len(e.SK), len(e.PK))
			}
			dst = append(dst, byte(len(e.SK)))
			dst = append(dst, e.SK...)
			dst = append(dst, byte(len(e.PK)))
			dst = append(dst, e.PK...)
			dst = appendU32(dst, uint32(len(e.Value)))
			dst = append(dst, e.Value...)
		}
	case KindSchemaR:
		sch := r.Schema
		if sch == nil {
			sch = &Schema{}
		}
		if len(sch.Tables) > 65535 || len(sch.Indexes) > 65535 {
			return dst[:at], fmt.Errorf("wire: schema with %d tables, %d indexes", len(sch.Tables), len(sch.Indexes))
		}
		dst = appendU16(dst, uint16(len(sch.Tables)))
		for i := range sch.Tables {
			st := &sch.Tables[i]
			if len(st.Name) == 0 || len(st.Name) > MaxTableLen {
				return dst[:at], fmt.Errorf("wire: schema table name %d bytes long", len(st.Name))
			}
			dst = appendU32(dst, st.ID)
			dst = append(dst, byte(len(st.Name)))
			dst = append(dst, st.Name...)
		}
		dst = appendU16(dst, uint16(len(sch.Indexes)))
		for i := range sch.Indexes {
			si := &sch.Indexes[i]
			if len(si.Name) == 0 || len(si.Name) > MaxIndexName || len(si.Table) == 0 || len(si.Table) > MaxTableLen {
				return dst[:at], fmt.Errorf("wire: schema index %q on %q has a bad name length", si.Name, si.Table)
			}
			if si.Opaque != (len(si.Segs) == 0) {
				return dst[:at], fmt.Errorf("wire: schema index %q: opaque flag inconsistent with %d segments", si.Name, len(si.Segs))
			}
			if len(si.Segs) > MaxIndexSegs || len(si.Incs) > MaxIndexSegs {
				return dst[:at], fmt.Errorf("wire: schema index %q has %d/%d segments", si.Name, len(si.Segs), len(si.Incs))
			}
			dst = append(dst, byte(len(si.Name)))
			dst = append(dst, si.Name...)
			dst = append(dst, byte(len(si.Table)))
			dst = append(dst, si.Table...)
			var flags byte
			if si.Unique {
				flags |= 1
			}
			if si.Incs != nil {
				flags |= 2
			}
			if si.Opaque {
				flags |= 4
			}
			dst = append(dst, flags)
			var err error
			if dst, err = appendSegs(dst, si.Segs, "spec"); err != nil {
				return dst[:at], err
			}
			if dst, err = appendSegs(dst, si.Incs, "include list"); err != nil {
				return dst[:at], err
			}
		}
	case KindStatsR:
		snap := r.Stats
		if snap == nil {
			snap = &obs.Snapshot{}
		}
		dst = snap.AppendBinary(dst)
	case KindTxnR:
		var err error
		if dst, err = appendTxnResults(dst, r.Results); err != nil {
			return dst[:at], err
		}
	case KindTraceR:
		sp := r.Spans
		if sp == nil {
			sp = &trace.Spans{}
		}
		dst = trace.AppendSpans(dst, sp)
		var err error
		if dst, err = appendTxnResults(dst, r.Results); err != nil {
			return dst[:at], err
		}
	default:
		return dst[:at], fmt.Errorf("wire: cannot encode response kind %v", r.Kind)
	}
	return endFrame(dst, at), nil
}

// traceFsyncOff is where an encoded TRACER frame keeps its Fsync span:
// past the length prefix and the kind byte, the fifth u64 of the span
// block (trace.AppendSpans order).
const traceFsyncOff = 4 + 1 + 4*8

// AddTraceFsync adds wait to the Fsync span of an encoded TRACER frame
// (length prefix included) in place, saturating at the largest
// time.Duration, and reports whether frame was one. A server that holds a
// traced write until its epoch is durable learns that wait only after the
// frame was encoded; this is the one place that knows where the span sits.
func AddTraceFsync(frame []byte, wait time.Duration) bool {
	if len(frame) < 4+1+trace.SpansEncodedLen || Kind(frame[4]) != KindTraceR {
		return false
	}
	if wait > 0 {
		p := frame[traceFsyncOff : traceFsyncOff+8]
		v := binary.BigEndian.Uint64(p)
		if v > math.MaxInt64-uint64(wait) {
			v = math.MaxInt64
		} else {
			v += uint64(wait)
		}
		binary.BigEndian.PutUint64(p, v)
	}
	return true
}

// appendTxnResults encodes the shared TXNR/TRACER result list.
func appendTxnResults(dst []byte, results []TxnResult) ([]byte, error) {
	if len(results) > MaxTxnOps {
		return dst, fmt.Errorf("wire: txn response with %d results", len(results))
	}
	dst = appendU16(dst, uint16(len(results)))
	for i := range results {
		res := &results[i]
		if res.HasValue {
			dst = append(dst, 1)
			dst = appendU32(dst, uint32(len(res.Value)))
			dst = append(dst, res.Value...)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst, nil
}

// ---------------------------------------------------------------------------
// Decoding

// reader is a bounds-checked cursor over a payload. All take methods return
// ErrMalformed-wrapped errors instead of panicking on truncated input.
type reader struct {
	buf []byte
	off int
}

func (rd *reader) remaining() int { return len(rd.buf) - rd.off }

func (rd *reader) take(n int) ([]byte, error) {
	if n < 0 || rd.remaining() < n {
		return nil, malformed("need %d bytes, have %d", n, rd.remaining())
	}
	b := rd.buf[rd.off : rd.off+n : rd.off+n]
	rd.off += n
	return b, nil
}

func (rd *reader) byte() (byte, error) {
	b, err := rd.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (rd *reader) u16() (uint16, error) {
	b, err := rd.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (rd *reader) u32() (uint32, error) {
	b, err := rd.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (rd *reader) u64() (uint64, error) {
	b, err := rd.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// bytes8 reads a 1-byte-length-prefixed byte string.
func (rd *reader) bytes8() ([]byte, error) {
	n, err := rd.byte()
	if err != nil {
		return nil, err
	}
	return rd.take(int(n))
}

// bytes32 reads a 4-byte-length-prefixed byte string. The length claim is
// validated against the remaining payload before any allocation happens, so
// a hostile prefix cannot force a large allocation.
func (rd *reader) bytes32() ([]byte, error) {
	n, err := rd.u32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(rd.remaining()) {
		return nil, malformed("value length %d exceeds remaining %d", n, rd.remaining())
	}
	return rd.take(int(n))
}

// DecodeScratch is reusable decoding state for DecodeRequestInto: the
// request's op-slice backing and a small table-name intern cache, both
// recycled across frames so steady-state decoding allocates nothing. A
// scratch belongs to one decoder goroutine (typically one per connection)
// and must not be shared.
type DecodeScratch struct {
	ops []Op
	// names is a tiny direct-scan intern cache: connections touch few
	// distinct tables, so a linear probe over recent names beats a map and
	// allocates only on first sight of a name. next is the ring-eviction
	// cursor.
	names [internNames]string
	next  int
}

// Drop returns the scratch to its zero state, releasing its references
// into previously decoded payloads (the op backing's key/value slices
// alias the frame buffer). Pools that recycle a scratch alongside its
// frame buffer call it when discarding an oversized buffer, so the
// scratch does not pin the buffer's memory; a dropped scratch remains
// usable and simply re-grows.
func (sc *DecodeScratch) Drop() { *sc = DecodeScratch{} }

// internNames sizes the scratch's table-name cache. Eight covers every
// workload in the tree (TPC-C touches nine tables but per-frame locality
// is far tighter); misses are correct, just one allocation slower.
const internNames = 8

// intern returns tbl as a string, reusing a cached copy when the same name
// was seen recently.
func (sc *DecodeScratch) intern(tbl []byte) string {
	for i := range sc.names {
		s := sc.names[i]
		if len(s) == len(tbl) && s == string(tbl) { // comparison does not allocate
			return s
		}
	}
	s := string(tbl)
	sc.names[sc.next] = s
	sc.next = (sc.next + 1) % internNames
	return s
}

// tableString converts a decoded table name, interning through sc when the
// caller supplied one.
func tableString(tbl []byte, sc *DecodeScratch) string {
	if sc != nil {
		return sc.intern(tbl)
	}
	return string(tbl)
}

func decodeOpBody(rd *reader, op *Op, sc *DecodeScratch) error {
	tbl, err := rd.bytes8()
	if err != nil {
		return err
	}
	op.Table = tableString(tbl, sc)
	if op.Key, err = rd.bytes8(); err != nil {
		return err
	}
	switch op.Kind {
	case KindGet, KindDelete:
	case KindPut, KindInsert:
		if op.Value, err = rd.bytes32(); err != nil {
			return err
		}
	case KindAdd:
		d, err := rd.u64()
		if err != nil {
			return err
		}
		op.Delta = int64(d)
	case KindScan:
		has, err := rd.byte()
		if err != nil {
			return err
		}
		switch has {
		case 0:
		case 1:
			op.HasHi = true
			if op.Hi, err = rd.bytes8(); err != nil {
				return err
			}
		default:
			return malformed("scan hasHi byte %d", has)
		}
		if op.Limit, err = rd.u32(); err != nil {
			return err
		}
	default:
		return malformed("op kind %v", op.Kind)
	}
	return nil
}

// DecodeRequest parses a request payload (the frame contents after the
// length prefix). Byte-slice fields alias payload. It never panics on
// malformed input; errors wrap ErrMalformed.
func DecodeRequest(payload []byte) (Request, error) {
	var req Request
	if err := decodeRequestInto(payload, &req, nil); err != nil {
		return Request{}, err
	}
	return req, nil
}

// DecodeRequestInto is DecodeRequest decoding into req with sc's reusable
// state: the op slice reuses sc's backing and table names intern through
// sc's cache, so a steady stream of frames decodes with zero allocations.
// Byte-slice fields still alias payload. On error req is reset to the zero
// Request.
func DecodeRequestInto(payload []byte, req *Request, sc *DecodeScratch) error {
	if err := decodeRequestInto(payload, req, sc); err != nil {
		*req = Request{}
		return err
	}
	return nil
}

// appendOp appends a zeroed op to the request's op list, drawing backing
// from sc when present, and returns it for in-place decoding.
func appendOp(req *Request, sc *DecodeScratch, kind Kind) *Op {
	req.Ops = append(req.Ops, Op{Kind: kind})
	if sc != nil {
		sc.ops = req.Ops // keep grown backing for the next frame
	}
	return &req.Ops[len(req.Ops)-1]
}

func decodeRequestInto(payload []byte, req *Request, sc *DecodeScratch) error {
	*req = Request{}
	if sc != nil {
		req.Ops = sc.ops[:0]
	}
	rd := reader{buf: payload}
	kb, err := rd.byte()
	if err != nil {
		return err
	}
	kind := Kind(kb)
	if kind == KindTxn || kind == KindTrace {
		nops, err := rd.u16()
		if err != nil {
			return err
		}
		if nops == 0 {
			return malformed("txn with zero ops")
		}
		// Every op costs at least 3 bytes (kind + two empty strings), so a
		// hostile count cannot out-allocate its own payload.
		if int(nops) > rd.remaining()/3+1 {
			return malformed("txn claims %d ops in %d bytes", nops, rd.remaining())
		}
		req.Txn, req.Trace = true, kind == KindTrace
		if req.Ops == nil {
			req.Ops = make([]Op, 0, nops)
		}
		for i := 0; i < int(nops); i++ {
			kb, err := rd.byte()
			if err != nil {
				return err
			}
			opKind := Kind(kb)
			switch opKind {
			case KindGet, KindPut, KindInsert, KindDelete, KindAdd:
			default:
				return malformed("txn op kind %v", opKind)
			}
			if err := decodeOpBody(&rd, appendOp(req, sc, opKind), sc); err != nil {
				return err
			}
		}
		if rd.remaining() != 0 {
			return malformed("%d trailing bytes", rd.remaining())
		}
		return nil
	}
	op := appendOp(req, sc, kind)
	switch kind {
	case KindGet, KindPut, KindInsert, KindDelete, KindScan, KindAdd:
		if err := decodeOpBody(&rd, op, sc); err != nil {
			return err
		}
	case KindCreateIndex:
		if err := decodeCreateIndex(&rd, op); err != nil {
			return err
		}
	case KindDropIndex:
		if err := decodeDropIndex(&rd, op); err != nil {
			return err
		}
	case KindIScan:
		if err := decodeIScan(&rd, op, sc); err != nil {
			return err
		}
	case KindSchema, KindStats:
		// No body.
	default:
		return malformed("request kind %v", kind)
	}
	if rd.remaining() != 0 {
		return malformed("%d trailing bytes", rd.remaining())
	}
	return nil
}

// decodeBool reads a canonical boolean byte; anything but 0 or 1 is
// malformed (keeping the grammar canonical so decode∘encode is identity).
func (rd *reader) decodeBool(what string) (bool, error) {
	b, err := rd.byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, malformed("%s byte %d", what, b)
}

func decodeCreateIndex(rd *reader, op *Op) error {
	name, err := rd.bytes8()
	if err != nil {
		return err
	}
	if len(name) == 0 {
		return malformed("empty index name")
	}
	op.Index = string(name)
	tbl, err := rd.bytes8()
	if err != nil {
		return err
	}
	if len(tbl) == 0 {
		return malformed("empty table name")
	}
	op.Table = string(tbl)
	if op.Unique, err = rd.decodeBool("unique"); err != nil {
		return err
	}
	if op.Segs, err = decodeSegs(rd, "spec", 1); err != nil {
		return err
	}
	op.Incs, err = decodeSegs(rd, "include list", 0)
	return err
}

func decodeDropIndex(rd *reader, op *Op) error {
	name, err := rd.bytes8()
	if err != nil {
		return err
	}
	if len(name) == 0 {
		return malformed("empty index name")
	}
	op.Index = string(name)
	return nil
}

// decodeSegs parses a segment list (u8 count | count × (src, off, len)),
// rejecting counts outside [min, MaxIndexSegs] and zero-length segments.
// A zero count decodes to nil, keeping decode∘encode identity (the
// encoder writes nil and empty lists identically).
func decodeSegs(rd *reader, what string, min int) ([]IndexSeg, error) {
	n, err := rd.byte()
	if err != nil {
		return nil, err
	}
	if int(n) < min || int(n) > MaxIndexSegs {
		return nil, malformed("index %s with %d segments (%d..%d allowed)", what, n, min, MaxIndexSegs)
	}
	if n == 0 {
		return nil, nil
	}
	segs := make([]IndexSeg, 0, n)
	for i := 0; i < int(n); i++ {
		var seg IndexSeg
		if seg.FromValue, err = rd.decodeBool("segment source"); err != nil {
			return nil, err
		}
		if seg.Xform, err = rd.byte(); err != nil {
			return nil, err
		}
		if seg.Xform&^xformMask != 0 {
			return nil, malformed("index %s segment %d has unknown transform bits 0x%x", what, i, seg.Xform)
		}
		if seg.Off, err = rd.u16(); err != nil {
			return nil, err
		}
		if seg.Len, err = rd.u16(); err != nil {
			return nil, err
		}
		if seg.Len == 0 {
			return nil, malformed("index %s segment %d has zero length", what, i)
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

func decodeIScan(rd *reader, op *Op, sc *DecodeScratch) error {
	name, err := rd.bytes8()
	if err != nil {
		return err
	}
	if len(name) == 0 {
		return malformed("empty index name")
	}
	// Interned like table names: a scan-heavy connection names the same
	// index frame after frame.
	op.Index = tableString(name, sc)
	if op.Key, err = rd.bytes8(); err != nil {
		return err
	}
	if op.HasHi, err = rd.decodeBool("iscan hasHi"); err != nil {
		return err
	}
	if op.HasHi {
		if op.Hi, err = rd.bytes8(); err != nil {
			return err
		}
	}
	if op.Limit, err = rd.u32(); err != nil {
		return err
	}
	if op.Snapshot, err = rd.decodeBool("iscan snapshot"); err != nil {
		return err
	}
	op.Covering, err = rd.decodeBool("iscan covering")
	return err
}

// decodeSchema parses a SCHEMAR body, enforcing the canonical grammar
// (flag bits must agree with the segment lists, so decode∘encode is
// identity).
func decodeSchema(rd *reader) (*Schema, error) {
	sch := &Schema{}
	ntables, err := rd.u16()
	if err != nil {
		return nil, err
	}
	// Each table costs at least 6 bytes (id + length prefix + 1-byte name).
	if int(ntables) > rd.remaining()/6+1 {
		return nil, malformed("schema claims %d tables in %d bytes", ntables, rd.remaining())
	}
	for i := 0; i < int(ntables); i++ {
		var st SchemaTable
		if st.ID, err = rd.u32(); err != nil {
			return nil, err
		}
		name, err := rd.bytes8()
		if err != nil {
			return nil, err
		}
		if len(name) == 0 {
			return nil, malformed("empty schema table name")
		}
		st.Name = string(name)
		sch.Tables = append(sch.Tables, st)
	}
	nindexes, err := rd.u16()
	if err != nil {
		return nil, err
	}
	// Each index costs at least 7 bytes (two 1-byte names, flags, two
	// segment counts).
	if int(nindexes) > rd.remaining()/7+1 {
		return nil, malformed("schema claims %d indexes in %d bytes", nindexes, rd.remaining())
	}
	for i := 0; i < int(nindexes); i++ {
		var si SchemaIndex
		name, err := rd.bytes8()
		if err != nil {
			return nil, err
		}
		if len(name) == 0 {
			return nil, malformed("empty schema index name")
		}
		si.Name = string(name)
		tbl, err := rd.bytes8()
		if err != nil {
			return nil, err
		}
		if len(tbl) == 0 {
			return nil, malformed("empty schema index table")
		}
		si.Table = string(tbl)
		flags, err := rd.byte()
		if err != nil {
			return nil, err
		}
		if flags&^byte(7) != 0 {
			return nil, malformed("schema index flags 0x%x", flags)
		}
		si.Unique = flags&1 != 0
		si.Opaque = flags&4 != 0
		if si.Segs, err = decodeSegs(rd, "spec", 0); err != nil {
			return nil, err
		}
		if si.Opaque != (si.Segs == nil) {
			return nil, malformed("schema index %q: opaque flag inconsistent with %d segments", si.Name, len(si.Segs))
		}
		if si.Incs, err = decodeSegs(rd, "include list", 0); err != nil {
			return nil, err
		}
		if (flags&2 != 0) != (si.Incs != nil) {
			return nil, malformed("schema index %q: covering flag inconsistent with %d include segments", si.Name, len(si.Incs))
		}
		sch.Indexes = append(sch.Indexes, si)
	}
	return sch, nil
}

// DecodeResponse parses a response payload. Byte-slice fields alias
// payload. It never panics on malformed input; errors wrap ErrMalformed.
func DecodeResponse(payload []byte) (Response, error) {
	rd := reader{buf: payload}
	kb, err := rd.byte()
	if err != nil {
		return Response{}, err
	}
	resp := Response{Kind: Kind(kb)}
	switch resp.Kind {
	case KindOK:
	case KindValue:
		if resp.Value, err = rd.bytes32(); err != nil {
			return Response{}, err
		}
	case KindErr:
		cb, err := rd.byte()
		if err != nil {
			return Response{}, err
		}
		resp.Code = ErrCode(cb)
		n, err := rd.u16()
		if err != nil {
			return Response{}, err
		}
		msg, err := rd.take(int(n))
		if err != nil {
			return Response{}, err
		}
		resp.Msg = string(msg)
	case KindScanR:
		npairs, err := rd.u32()
		if err != nil {
			return Response{}, err
		}
		// Each pair costs at least 5 bytes (two length prefixes).
		if uint64(npairs) > uint64(rd.remaining())/5+1 {
			return Response{}, malformed("scan claims %d pairs in %d bytes", npairs, rd.remaining())
		}
		resp.Pairs = make([]KV, 0, npairs)
		for i := uint32(0); i < npairs; i++ {
			var kv KV
			if kv.Key, err = rd.bytes8(); err != nil {
				return Response{}, err
			}
			if kv.Value, err = rd.bytes32(); err != nil {
				return Response{}, err
			}
			resp.Pairs = append(resp.Pairs, kv)
		}
	case KindIScanR:
		n, err := rd.u32()
		if err != nil {
			return Response{}, err
		}
		// Each entry costs at least 6 bytes (two 1-byte and one 4-byte
		// length prefix), so a hostile count cannot out-allocate its
		// payload.
		if uint64(n) > uint64(rd.remaining())/6+1 {
			return Response{}, malformed("iscan claims %d entries in %d bytes", n, rd.remaining())
		}
		resp.Entries = make([]IndexEntry, 0, n)
		for i := uint32(0); i < n; i++ {
			var e IndexEntry
			if e.SK, err = rd.bytes8(); err != nil {
				return Response{}, err
			}
			if e.PK, err = rd.bytes8(); err != nil {
				return Response{}, err
			}
			if e.Value, err = rd.bytes32(); err != nil {
				return Response{}, err
			}
			resp.Entries = append(resp.Entries, e)
		}
	case KindSchemaR:
		sch, err := decodeSchema(&rd)
		if err != nil {
			return Response{}, err
		}
		resp.Schema = sch
	case KindStatsR:
		// The snapshot decoder enforces its own strict grammar — versioned
		// header, claim-vs-remaining bounds, canonical samples, no trailing
		// bytes — so the rest of the payload is handed over whole.
		rest, err := rd.take(rd.remaining())
		if err != nil {
			return Response{}, err
		}
		snap, err := obs.DecodeSnapshot(rest)
		if err != nil {
			return Response{}, malformed("stats snapshot: %v", err)
		}
		resp.Stats = snap
	case KindTxnR:
		if resp.Results, err = decodeTxnResults(&rd); err != nil {
			return Response{}, err
		}
	case KindTraceR:
		block, err := rd.take(trace.SpansEncodedLen)
		if err != nil {
			return Response{}, err
		}
		sp, _, ok := trace.DecodeSpans(block)
		if !ok {
			return Response{}, malformed("trace span block")
		}
		resp.Spans = &sp
		if resp.Results, err = decodeTxnResults(&rd); err != nil {
			return Response{}, err
		}
	default:
		return Response{}, malformed("response kind %v", resp.Kind)
	}
	if rd.remaining() != 0 {
		return Response{}, malformed("%d trailing bytes", rd.remaining())
	}
	return resp, nil
}

// decodeTxnResults parses the shared TXNR/TRACER result list.
func decodeTxnResults(rd *reader) ([]TxnResult, error) {
	nres, err := rd.u16()
	if err != nil {
		return nil, err
	}
	if int(nres) > rd.remaining()+1 {
		return nil, malformed("txn response claims %d results in %d bytes", nres, rd.remaining())
	}
	results := make([]TxnResult, 0, nres)
	for i := 0; i < int(nres); i++ {
		hv, err := rd.byte()
		if err != nil {
			return nil, err
		}
		var res TxnResult
		switch hv {
		case 0:
		case 1:
			res.HasValue = true
			if res.Value, err = rd.bytes32(); err != nil {
				return nil, err
			}
		default:
			return nil, malformed("txn result flag %d", hv)
		}
		results = append(results, res)
	}
	return results, nil
}
