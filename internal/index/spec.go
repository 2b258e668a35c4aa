package index

import (
	"errors"
	"fmt"
)

// Transform flags for declarative key-spec segments. A segment's extracted
// bytes pass through its transform before joining the concatenated key, so
// specs can express byte-order conversions:
//
//   - XformReverse reverses the segment's bytes, turning a little-endian
//     row field into the big-endian form tree order wants.
//   - XformInvert complements every bit, so a numerically ascending field
//     sorts descending (the standard most-recent-first trick).
//
// The flags compose: Reverse|Invert reverses first, then inverts — a
// little-endian field indexed most-recent-first. Composite keys are the
// spec itself: segments concatenate in declaration order.
const (
	XformNone    uint8 = 0
	XformReverse uint8 = 1 << 0
	XformInvert  uint8 = 1 << 1

	xformMask = XformReverse | XformInvert
)

// A Seg is one fixed-position segment of a declarative key spec: Len bytes
// at offset Off of either the primary key or the row value, passed through
// Xform. A spec is the one way an index is declared — embedded, over the
// wire, and in the schema catalog, which persists it so recovery rebuilds
// the index. Specs cover fixed-offset row encodings (TPC-C-style structs,
// counters in YCSB records) including byte-order and sort-direction
// conversions.
type Seg struct {
	FromValue bool // take bytes from the row value instead of the primary key
	Off, Len  int
	Xform     uint8 // XformReverse | XformInvert
}

// MaxSpecSegs bounds a declarative spec's segment count (also enforced by
// the wire protocol).
const MaxSpecSegs = 16

// ValidateSpec checks a declarative spec's shape. Row-dependent problems
// (a segment past the end of a short value) are not errors: such rows are
// simply not indexed.
func ValidateSpec(segs []Seg) error {
	if len(segs) == 0 {
		return errors.New("index spec: no segments")
	}
	if len(segs) > MaxSpecSegs {
		return fmt.Errorf("index spec: %d segments exceeds the maximum %d", len(segs), MaxSpecSegs)
	}
	for i, s := range segs {
		if s.Off < 0 || s.Len <= 0 {
			return fmt.Errorf("index spec: segment %d has offset %d length %d", i, s.Off, s.Len)
		}
		if s.Xform&^xformMask != 0 {
			return fmt.Errorf("index spec: segment %d has unknown transform bits 0x%x", i, s.Xform)
		}
	}
	return nil
}

// compileSpec turns a declarative spec into a keyFunc: the secondary key is
// the concatenation of the (transformed) segments. A row too short for any
// segment is left unindexed (ok=false), which lets specs index optional
// fixed-offset fields.
func compileSpec(segs []Seg) (keyFunc, error) {
	if err := ValidateSpec(segs); err != nil {
		return nil, err
	}
	spec := append([]Seg(nil), segs...)
	return func(dst, pk, val []byte) ([]byte, bool) {
		start := len(dst)
		for _, s := range spec {
			src := pk
			if s.FromValue {
				src = val
			}
			if s.Off+s.Len > len(src) {
				return dst[:start], false
			}
			at := len(dst)
			dst = append(dst, src[s.Off:s.Off+s.Len]...)
			applyXform(dst[at:], s.Xform)
		}
		return dst, true
	}, nil
}

// applyXform rewrites one extracted segment in place.
func applyXform(b []byte, x uint8) {
	if x&XformReverse != 0 {
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
	}
	if x&XformInvert != 0 {
		for i := range b {
			b[i] = ^b[i]
		}
	}
}
