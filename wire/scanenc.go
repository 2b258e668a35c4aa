package wire

import (
	"encoding/binary"
	"fmt"
)

// ScanEncoder builds one SCANR or ISCANR frame row by row, directly in the
// buffer that goes to the socket: a scan visitor appends each row as it is
// produced, so a page is never materialized as []KV / []IndexEntry and
// never copied a second time by AppendResponse. For the same rows the
// finished frame is byte-identical to AppendResponse's.
//
//	Begin   reserve length prefix, kind and row count
//	Pair    append one SCANR row   (u8 klen | key | u32 vlen | value)
//	Entry   append one ISCANR row  (u8 sklen | sk | u8 pklen | pk | u32 vlen | value)
//	Reset   drop every row (a retried transaction restarts its page)
//	Finish  patch row count and frame length
//
// Pair and Entry report whether the scan should go on. They return false,
// and keep returning false until Reset, once a row cannot be encoded: a
// key longer than 255 bytes (AppendResponse's error), or a row that would
// grow the payload past the cap given to Begin (an error wrapping
// ErrFrameTooLarge) — a peer's ReadFrame would reject such a frame and
// drop the connection, so it is never built. Finish returns that error.
//
// The zero value is ready for Begin; an encoder is reused frame after
// frame and holds no memory of its own.
type ScanEncoder struct {
	buf  []byte
	at   int // offset in buf of the frame's length prefix
	max  int // payload cap
	rows uint32
	err  error
}

// scanHeader is what Begin reserves: length prefix, kind, row count.
const scanHeader = 4 + 1 + 4

// Begin starts a frame of the given kind (KindScanR or KindIScanR),
// appending to dst. max caps the payload size (0 means MaxFrame).
func (e *ScanEncoder) Begin(dst []byte, kind Kind, max int) {
	if max <= 0 {
		max = MaxFrame
	}
	e.at = len(dst)
	e.buf = append(dst, 0, 0, 0, 0, byte(kind), 0, 0, 0, 0)
	e.max, e.rows, e.err = max, 0, nil
}

// Reset truncates the frame back to its header, clearing any row error.
func (e *ScanEncoder) Reset() {
	e.buf = e.buf[:e.at+scanHeader]
	e.rows, e.err = 0, nil
}

// Rows is the number of rows encoded since Begin or the last Reset.
func (e *ScanEncoder) Rows() int { return int(e.rows) }

// fits reports whether n more payload bytes stay within the cap, and
// records the oversize error when they do not.
func (e *ScanEncoder) fits(n int) bool {
	if len(e.buf)-e.at-4+n > e.max {
		e.err = fmt.Errorf("%w: scan response exceeds %d bytes; lower the limit", ErrFrameTooLarge, e.max)
		return false
	}
	return true
}

// Pair appends one SCANR row.
func (e *ScanEncoder) Pair(key, value []byte) bool {
	if e.err != nil {
		return false
	}
	if len(key) > 255 {
		e.err = fmt.Errorf("wire: scan key %d bytes long", len(key))
		return false
	}
	if !e.fits(1 + len(key) + 4 + len(value)) {
		return false
	}
	b := append(e.buf, byte(len(key)))
	b = append(b, key...)
	b = appendU32(b, uint32(len(value)))
	e.buf = append(b, value...)
	e.rows++
	return true
}

// Entry appends one ISCANR row.
func (e *ScanEncoder) Entry(sk, pk, value []byte) bool {
	if e.err != nil {
		return false
	}
	if len(sk) > 255 || len(pk) > 255 {
		e.err = fmt.Errorf("wire: index entry keys %d/%d bytes long", len(sk), len(pk))
		return false
	}
	if !e.fits(1 + len(sk) + 1 + len(pk) + 4 + len(value)) {
		return false
	}
	b := append(e.buf, byte(len(sk)))
	b = append(b, sk...)
	b = append(b, byte(len(pk)))
	b = append(b, pk...)
	b = appendU32(b, uint32(len(value)))
	e.buf = append(b, value...)
	e.rows++
	return true
}

// Finish completes the frame and returns the buffer, frame appended. After
// a row error it returns the buffer truncated to what Begin was given
// (capacity kept, so the caller can recycle it) and that error.
func (e *ScanEncoder) Finish() ([]byte, error) {
	if e.err != nil {
		return e.buf[:e.at], e.err
	}
	binary.BigEndian.PutUint32(e.buf[e.at+5:], e.rows)
	return endFrame(e.buf, e.at), nil
}
