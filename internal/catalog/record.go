// Package catalog is Silo's durable schema catalog: every DDL action —
// table create, index create (unique/covering/include-list/key-spec),
// index drop — is recorded as a row of a reserved system table
// ("__catalog", always table id 0), written inside an ordinary
// transaction on the store's hidden DDL worker. Because catalog rows are
// ordinary rows, they are redo-logged, group-committed, checkpointed, and
// replayed by the existing durability machinery with no new on-disk
// record formats: a schema change shares the epoch-prefix durability
// guarantee of the data that follows it (a durable data write implies the
// earlier create record for its table is durable too).
//
// Recovery is therefore self-describing: the checkpoint manifest carries
// the catalog rows as of the checkpoint epoch, the log carries the DDL
// suffix, and replaying both in sequence order reconstructs every table
// and index — ids, uniqueness, key specs, transforms, covering include
// lists. The catalog is the only source of schema: nothing is declared
// before recovery, and every index is declared by a key spec, which is
// what lets its record rebuild it.
//
// Index creation is a two-record protocol: a create record is logged
// before the backfill starts and a ready record after it completes, so a
// crash mid-DDL is visible at recovery as a create without a ready.
// Recovery rolls such an index forward (the backfill re-runs; it is
// idempotent against the entries the log already replayed) or, if the
// backfill cannot complete, rolls it back cleanly — entries wiped, drop
// record logged — instead of serving a half-built index.
//
// A Catalog is also the one owner of its store's live indexes: it names
// them (lookups take no lock), declares, backfills and drops them, and
// keeps the read counters they share.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"silo/internal/index"
)

// TableName is the reserved name of the catalog table. It is always the
// store's first table (id 0), created by New before any user table.
const TableName = "__catalog"

// Record kinds.
const (
	// KindCreateTable records a user table creation.
	KindCreateTable byte = 1
	// KindCreateIndex records an index creation, logged durably before
	// the backfill begins.
	KindCreateIndex byte = 2
	// KindIndexReady marks an index's backfill complete; an index create
	// without a ready (or drop) is a crash mid-DDL.
	KindIndexReady byte = 3
	// KindDropIndex records an index drop — explicit, or the rollback of
	// a create whose backfill failed.
	KindDropIndex byte = 4
)

const recordVersion = 1

// Record is one decoded DDL action.
type Record struct {
	Kind byte
	// Name is the table name (KindCreateTable) or index name (all other
	// kinds).
	Name string
	// ID is the table id the created table (or index entry table) holds.
	// Replay checks it against the id the store assigns, so a record that
	// disagrees with the creation order fails recovery instead of shifting
	// every later table.
	ID uint32

	// Index declaration fields (KindCreateIndex only).
	On      string // indexed table name
	Unique  bool
	Spec    []index.Seg // declarative key spec
	Include []index.Seg // covering include list (nil when not covering)
}

// Flag bits of a KindCreateIndex record. flagOpaque marked an index
// declared with a Go key function, which earlier releases recorded but
// could not rebuild; such a record no longer decodes.
const (
	flagUnique   = 1
	flagOpaque   = 2
	flagCovering = 4
)

// ErrBadRecord reports a catalog row that does not decode; test with
// errors.Is.
var ErrBadRecord = errors.New("catalog: malformed record")

// SeqKey encodes a catalog sequence number as its row key (8-byte
// big-endian, so key order is sequence order).
func SeqKey(seq uint64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], seq)
	return k[:]
}

// ParseSeqKey decodes a catalog row key.
func ParseSeqKey(key []byte) (uint64, error) {
	if len(key) != 8 {
		return 0, fmt.Errorf("%w: key %x is not a sequence number", ErrBadRecord, key)
	}
	return binary.BigEndian.Uint64(key), nil
}

// Encode appends the record's binary form to dst.
//
// Layout: u8 version | u8 kind | u32 id | u16 nlen | name, and for
// KindCreateIndex additionally u16 onlen | on | u8 flags | u8 nsegs |
// segs | u8 nincs | incs with seg = u8 fromValue | u8 xform | u32 off |
// u32 len. Integers are little-endian like the rest of the on-disk
// formats.
func (r *Record) Encode(dst []byte) []byte {
	dst = append(dst, recordVersion, r.Kind)
	dst = binary.LittleEndian.AppendUint32(dst, r.ID)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Name)))
	dst = append(dst, r.Name...)
	if r.Kind != KindCreateIndex {
		return dst
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.On)))
	dst = append(dst, r.On...)
	var flags byte
	if r.Unique {
		flags |= flagUnique
	}
	if r.Include != nil {
		flags |= flagCovering
	}
	dst = append(dst, flags)
	dst = appendSegs(dst, r.Spec)
	dst = appendSegs(dst, r.Include)
	return dst
}

func appendSegs(dst []byte, segs []index.Seg) []byte {
	dst = append(dst, byte(len(segs)))
	for _, s := range segs {
		var fv byte
		if s.FromValue {
			fv = 1
		}
		dst = append(dst, fv, s.Xform)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Off))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Len))
	}
	return dst
}

// DecodeRecord parses one catalog row value.
func DecodeRecord(val []byte) (Record, error) {
	var r Record
	if len(val) < 8 {
		return r, fmt.Errorf("%w: %d bytes", ErrBadRecord, len(val))
	}
	if val[0] != recordVersion {
		return r, fmt.Errorf("%w: unknown version %d", ErrBadRecord, val[0])
	}
	r.Kind = val[1]
	r.ID = binary.LittleEndian.Uint32(val[2:6])
	nlen := int(binary.LittleEndian.Uint16(val[6:8]))
	off := 8
	if off+nlen > len(val) {
		return r, fmt.Errorf("%w: truncated name", ErrBadRecord)
	}
	r.Name = string(val[off : off+nlen])
	off += nlen
	switch r.Kind {
	case KindCreateTable, KindIndexReady, KindDropIndex:
		if off != len(val) {
			return r, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(val)-off)
		}
		return r, nil
	case KindCreateIndex:
	default:
		return r, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, r.Kind)
	}
	if off+2 > len(val) {
		return r, fmt.Errorf("%w: truncated index record", ErrBadRecord)
	}
	onlen := int(binary.LittleEndian.Uint16(val[off:]))
	off += 2
	if off+onlen+1 > len(val) {
		return r, fmt.Errorf("%w: truncated index record", ErrBadRecord)
	}
	r.On = string(val[off : off+onlen])
	off += onlen
	flags := val[off]
	off++
	if flags&flagOpaque != 0 {
		return r, fmt.Errorf("%w: index %q was declared with a Go key function, which the catalog cannot rebuild", ErrBadRecord, r.Name)
	}
	r.Unique = flags&flagUnique != 0
	covering := flags&flagCovering != 0
	var err error
	if r.Spec, off, err = decodeSegs(val, off); err != nil {
		return r, err
	}
	if r.Include, off, err = decodeSegs(val, off); err != nil {
		return r, err
	}
	if covering && r.Include == nil {
		return r, fmt.Errorf("%w: covering index with empty include list", ErrBadRecord)
	}
	if !covering && r.Include != nil {
		return r, fmt.Errorf("%w: include list on non-covering index", ErrBadRecord)
	}
	if off != len(val) {
		return r, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(val)-off)
	}
	return r, nil
}

func decodeSegs(val []byte, off int) ([]index.Seg, int, error) {
	if off >= len(val) {
		return nil, off, fmt.Errorf("%w: truncated segment list", ErrBadRecord)
	}
	n := int(val[off])
	off++
	if n == 0 {
		return nil, off, nil
	}
	if n > index.MaxSpecSegs {
		return nil, off, fmt.Errorf("%w: %d segments", ErrBadRecord, n)
	}
	segs := make([]index.Seg, 0, n)
	for i := 0; i < n; i++ {
		if off+10 > len(val) {
			return nil, off, fmt.Errorf("%w: truncated segment", ErrBadRecord)
		}
		segs = append(segs, index.Seg{
			FromValue: val[off] != 0,
			Xform:     val[off+1],
			Off:       int(binary.LittleEndian.Uint32(val[off+2:])),
			Len:       int(binary.LittleEndian.Uint32(val[off+6:])),
		})
		off += 10
	}
	return segs, off, nil
}
