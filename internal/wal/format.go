// Package wal implements Silo's decentralized durability subsystem (§4.10):
// per-worker redo-log buffers, logger threads each responsible for a
// disjoint subset of workers and writing to its own log file, per-logger
// durable epochs d_l, the global durable epoch D = min d_l, epoch-granular
// group commit, and the log reader that recovery (internal/recovery)
// replays from: ListLogFiles, ScanSegment, Segment.Walk and DurableBound.
//
// Silo logs at record level (redo only, no undo: logging happens after
// commit). A worker serializes each committed transaction — its TID and the
// table/key/value of every modified record — into a local buffer in disk
// format. When the buffer fills or a new epoch begins, the worker closes it
// onto a list. Each logger pass reads d from the epoch slots (the paper's
// d = epoch(min ctid_w) − 1, without needing workers to keep committing),
// takes every assigned worker's closed buffers and its open one, appends
// them plus a final record containing d, waits for the writes to complete,
// and publishes d_l. The pass is the only way a buffer reaches the log.
// Transactions in epochs ≤ D = min d_l are durable; results are released
// to clients only then.
//
// Buffers are not garbage: a logger hands each buffer it has written back
// to its worker at its next pass over that worker, and the worker starts
// new buffers from those spares, so a steady-state commit allocates nothing
// and never regrows a buffer. A worker keeps at most two spares, none with
// a capacity above 2 × Config.BufferBytes, so what an idle worker retains
// is bounded by 4 × BufferBytes; the cycle relies on vfs.File.Write not
// retaining the bytes it is given.
package wal

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"silo/internal/core"
)

// On-disk format. A log file is a sequence of frames:
//
//	buffer frame:   'B' | u32 payloadLen | u32 crc32(payload) | payload
//	deflated frame: 'C' | u32 payloadLen | u32 crc32(payload) | payload
//	durable frame:  'D' | u64 epoch | u32 crc32(epoch bytes)
//
// A buffer-frame payload is a sequence of transaction records:
//
//	u64 TID | u32 nWrites | nWrites × ( u32 table | u16 keyLen | key |
//	                                    u32 valueLen | value )
//
// valueLen = deleteMarker encodes a delete (no value bytes follow). In
// TID-only mode (the Figure 11 "+SmallRecs" factor) nWrites is zero.
//
// A deflated frame is a buffer frame whose payload went through DEFLATE
// (Config.Compress, the "+Compress" factor); length and CRC describe the
// bytes on disk. The kind is all a reader needs, so a log says for itself
// how it was written, and frames of both kinds may share a segment (a
// restart that toggles Compress, or a buffer past maxInflated). A log
// written without Compress holds no 'C' frame.
const (
	frameBuffer   = 'B'
	frameDeflated = 'C'
	frameDurable  = 'D'

	deleteMarker = ^uint32(0)

	// maxInflated bounds what one deflated frame may inflate to: DEFLATE
	// reaches about 1000:1, so without a bound a CRC-valid frame of a few
	// megabytes could make recovery allocate gigabytes. Loggers write
	// larger buffers as plain buffer frames (a worker buffer is
	// Config.BufferBytes plus at most one transaction).
	maxInflated = 4 << 20
)

// ErrCorrupt reports a malformed log frame. A frame whose header or CRC is
// bad is a torn write, and recovery treats it as the end of the usable log
// (everything after it is discarded, as with any write-ahead log); one
// whose CRC matches but whose payload does not decode fails recovery (see
// Segment.Walk).
var ErrCorrupt = errors.New("wal: corrupt log frame")

// Entry is one logged record modification: the write a committing worker
// hands over, so a worker serializes its writes as they come.
type Entry = core.LoggedWrite

// appendTxn serializes a transaction record onto buf.
func appendTxn(buf []byte, tid uint64, entries []Entry) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, tid)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		buf = binary.LittleEndian.AppendUint32(buf, e.Table)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Key)))
		buf = append(buf, e.Key...)
		if e.Delete {
			buf = binary.LittleEndian.AppendUint32(buf, deleteMarker)
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Value)))
		buf = append(buf, e.Value...)
	}
	return buf
}

// frameHeader is scratch for the header of the frame being written. A
// header on the stack would escape to the heap through the io.Writer it is
// written to, so a logger keeps one of these and writing a frame allocates
// nothing.
type frameHeader [13]byte

// writeBuffer writes payload as a frame of the given kind: frameBuffer, or
// frameDeflated for a payload that deflate produced.
func (h *frameHeader) writeBuffer(w io.Writer, kind byte, payload []byte) error {
	h[0] = kind
	binary.LittleEndian.PutUint32(h[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[5:9], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(h[:9]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeDurable writes a durable-epoch frame.
func (h *frameHeader) writeDurable(w io.Writer, epoch uint64) error {
	h[0] = frameDurable
	binary.LittleEndian.PutUint64(h[1:9], epoch)
	binary.LittleEndian.PutUint32(h[9:13], crc32.ChecksumIEEE(h[1:9]))
	_, err := w.Write(h[:13])
	return err
}

// frameAt parses the frame starting at data[off]: its kind, its buffer
// payload or durable epoch, and the offset of the following frame. A
// truncated frame — or, with verify, one whose CRC does not match — yields
// ErrCorrupt. It is the one place that knows frame headers; payload
// contents are Segment.Walk's (inflating) and walkPayload's business.
func frameAt(data []byte, off int, verify bool) (kind byte, payload []byte, epoch uint64, next int, err error) {
	kind = data[off]
	switch kind {
	case frameBuffer, frameDeflated:
		if len(data)-off < 9 {
			return 0, nil, 0, 0, ErrCorrupt
		}
		n := binary.LittleEndian.Uint32(data[off+1 : off+5])
		if uint64(n) > uint64(len(data)-off-9) {
			return 0, nil, 0, 0, ErrCorrupt
		}
		next = off + 9 + int(n)
		payload = data[off+9 : next]
		if verify && crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+5:off+9]) {
			return 0, nil, 0, 0, ErrCorrupt
		}
		return kind, payload, 0, next, nil
	case frameDurable:
		if len(data)-off < 13 {
			return 0, nil, 0, 0, ErrCorrupt
		}
		eb := data[off+1 : off+9]
		if verify && crc32.ChecksumIEEE(eb) != binary.LittleEndian.Uint32(data[off+9:off+13]) {
			return 0, nil, 0, 0, ErrCorrupt
		}
		return kind, nil, binary.LittleEndian.Uint64(eb), off + 13, nil
	default:
		return 0, nil, 0, 0, fmt.Errorf("%w: unknown frame kind %q", ErrCorrupt, kind)
	}
}

// Visitor receives a segment's decoded contents from Segment.Walk, frame by
// frame, in log order. Frame opens each buffer frame, showing the payload
// its keys and values alias: a stretch of the segment's buffer or, when
// inflated, the copy Walk inflated a deflated frame into. Txn is then
// called once per transaction record, before its entries; returning false
// skips them: Walk still checks them but shows none (replay's epoch filter
// never pays for routing what it discards). Entry is called once per logged record modification of the
// transaction last announced; value is nil for a delete. key and value stay
// valid as long as the visitor holds them, but must be copied before they
// are stored anywhere that outlives recovery. FrameEnd closes the frame.
//
// The frame is decoded as it is shown, each length checked before it is
// used, so the visitor learns only at FrameEnd whether the whole frame was
// well-formed: torn reports that it was not — its payload ran out or
// overran mid-record — and that the walk stops there. What a visitor was
// shown of a torn frame must not be kept.
type Visitor interface {
	Frame(payload []byte, inflated bool)
	Txn(tid uint64, writes int) bool
	Entry(table uint32, key, value []byte, del bool)
	FrameEnd(torn bool)
}

// deflate compresses one buffer-frame payload (Config.Compress).
func deflate(p []byte) []byte {
	var cb bytes.Buffer
	fw, _ := flate.NewWriter(&cb, flate.BestSpeed)
	fw.Write(p)
	fw.Close()
	return cb.Bytes()
}

// inflate is deflate's inverse, refusing anything that does not inflate
// cleanly or inflates past maxInflated.
func inflate(p []byte) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(p))
	defer fr.Close()
	out, err := io.ReadAll(io.LimitReader(fr, maxInflated+1))
	if err == nil && len(out) > maxInflated {
		err = ErrCorrupt
	}
	return out, err
}

// minEntry is the fewest bytes an entry takes: its table, key length and
// value length (or delete marker).
const minEntry = 10

// walkPayload is the decoder of the transaction-record format: it feeds the
// records of p to v without copying or allocating, checking every length
// before it uses it, and reports whether p decoded to its end. A
// transaction's write count is checked against the bytes left before v is
// told it, so a visitor may size what it keeps by it. The entries of a
// transaction v declines are decoded all the same, to check them and find
// the next record, but not shown.
func walkPayload(p []byte, v Visitor) bool {
	for off := 0; off < len(p); {
		if len(p)-off < 12 {
			return false
		}
		tid := binary.LittleEndian.Uint64(p[off:])
		n := binary.LittleEndian.Uint32(p[off+8:])
		off += 12
		if uint64(n)*minEntry > uint64(len(p)-off) {
			return false
		}
		show := v.Txn(tid, int(n))
		for ; n > 0; n-- {
			if len(p)-off < 6 {
				return false
			}
			table := binary.LittleEndian.Uint32(p[off:])
			klen := int(binary.LittleEndian.Uint16(p[off+4:]))
			off += 6
			if len(p)-off < klen+4 {
				return false
			}
			key := p[off : off+klen : off+klen]
			vlen := binary.LittleEndian.Uint32(p[off+klen:])
			off += klen + 4
			if vlen == deleteMarker {
				if show {
					v.Entry(table, key, nil, true)
				}
				continue
			}
			if uint64(vlen) > uint64(len(p)-off) {
				return false
			}
			if show {
				v.Entry(table, key, p[off:off+int(vlen):off+int(vlen)], false)
			}
			off += int(vlen)
		}
	}
	return true
}
