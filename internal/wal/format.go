// Package wal implements Silo's decentralized durability subsystem (§4.10):
// per-worker redo-log buffers, logger threads each responsible for a
// disjoint subset of workers and writing to its own log file, per-logger
// durable epochs d_l, the global durable epoch D = min d_l, epoch-granular
// group commit, and recovery.
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

// ErrCorrupt reports a malformed or torn log frame; recovery treats it as
// the end of the usable log (everything after a torn frame is discarded, as
// with any write-ahead log).
var ErrCorrupt = errors.New("wal: corrupt log frame")

// Entry is one logged record modification: the write a committing worker
// hands over, so a worker serializes its writes as they come.
type Entry = core.LoggedWrite

// TxnRecord is one committed transaction in the log.
type TxnRecord struct {
	TID     uint64
	Entries []Entry
}

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

// writeBufferFrame writes payload as a frame of the given kind: frameBuffer,
// or frameDeflated for a payload that deflate produced.
func writeBufferFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeDurableFrame writes a durable-epoch frame.
func writeDurableFrame(w io.Writer, epoch uint64) error {
	var f [13]byte
	f[0] = frameDurable
	binary.LittleEndian.PutUint64(f[1:9], epoch)
	binary.LittleEndian.PutUint32(f[9:13], crc32.ChecksumIEEE(f[1:9]))
	_, err := w.Write(f[:])
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

// Visitor receives a segment's decoded contents from Segment.Walk, in log
// order. Txn is called once per transaction record, before its entries;
// returning false skips them (replay's epoch filter never pays for
// decoding what it discards). Entry is called once per logged record
// modification of the transaction last announced. key and value alias the
// segment's buffer (or, for a deflated frame, the inflated payload): they
// stay valid as long as the visitor holds them, but must be copied before
// they are stored anywhere that outlives recovery. value is nil for a
// delete.
type Visitor interface {
	Txn(tid uint64, writes int) bool
	Entry(table uint32, key, value []byte, del bool)
}

// A FrameVisitor is a Visitor that is also shown, before each buffer frame's
// transactions, the payload their keys and values alias: a stretch of the
// segment's buffer, or, when inflated, the copy Walk inflated a deflated
// frame into. Replay keeps an entry as its offset in one or the other.
type FrameVisitor interface {
	Visitor
	Frame(payload []byte, inflated bool)
}

// skipEntries hops over n entries starting at p[off], returning the offset
// past them, or false if they run off the end of p.
func skipEntries(p []byte, off int, n uint32) (int, bool) {
	for ; n > 0; n-- {
		if len(p)-off < 6 {
			return 0, false
		}
		klen := int(binary.LittleEndian.Uint16(p[off+4:]))
		off += 6
		if len(p)-off < klen+4 {
			return 0, false
		}
		vlen := binary.LittleEndian.Uint32(p[off+klen:])
		off += klen + 4
		if vlen == deleteMarker {
			continue
		}
		if uint64(vlen) > uint64(len(p)-off) {
			return 0, false
		}
		off += int(vlen)
	}
	return off, true
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

// checkPayload reports whether p is a well-formed sequence of transaction
// records. walkPayload runs only on payloads that passed, so a visitor never
// sees part of a frame whose remainder is malformed.
func checkPayload(p []byte) bool {
	for off := 0; off < len(p); {
		if len(p)-off < 12 {
			return false
		}
		var ok bool
		if off, ok = skipEntries(p, off+12, binary.LittleEndian.Uint32(p[off+8:])); !ok {
			return false
		}
	}
	return true
}

// walkPayload is the decoder of the transaction-record format: it feeds
// every record of a checked payload to v without copying or allocating.
func walkPayload(p []byte, v Visitor) {
	for off := 0; off < len(p); {
		tid := binary.LittleEndian.Uint64(p[off:])
		n := binary.LittleEndian.Uint32(p[off+8:])
		off += 12
		if !v.Txn(tid, int(n)) {
			off, _ = skipEntries(p, off, n)
			continue
		}
		for ; n > 0; n-- {
			table := binary.LittleEndian.Uint32(p[off:])
			klen := int(binary.LittleEndian.Uint16(p[off+4:]))
			key := p[off+6 : off+6+klen : off+6+klen]
			off += 6 + klen
			vlen := binary.LittleEndian.Uint32(p[off:])
			off += 4
			if vlen == deleteMarker {
				v.Entry(table, key, nil, true)
				continue
			}
			v.Entry(table, key, p[off:off+int(vlen):off+int(vlen)], false)
			off += int(vlen)
		}
	}
}

// txnCollector materializes what it is shown as TxnRecords that own their
// bytes — the copying form of the decoder, for callers that keep records
// beyond the segment buffer (ParseLogFile).
type txnCollector struct {
	txns []TxnRecord
}

func (c *txnCollector) Txn(tid uint64, writes int) bool {
	rec := TxnRecord{TID: tid}
	if writes > 0 {
		rec.Entries = make([]Entry, 0, writes)
	}
	c.txns = append(c.txns, rec)
	return true
}

func (c *txnCollector) Entry(table uint32, key, value []byte, del bool) {
	t := &c.txns[len(c.txns)-1]
	t.Entries = append(t.Entries, Entry{
		Table:  table,
		Key:    append([]byte(nil), key...),
		Value:  append([]byte(nil), value...),
		Delete: del,
	})
}
