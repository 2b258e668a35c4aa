package trace

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Spans is one traced transaction's span timeline: where the request
// spent its life from the moment the connection reader decoded it to the
// moment its response was handed back. Exec accumulates across OCC
// retries (Retries counts them); Fsync is the group-commit durability
// wait and is zero on non-durable servers.
type Spans struct {
	Queue    time.Duration // burst decoded → request starts on a worker context
	Exec     time.Duration // statement execution (all attempts)
	Validate time.Duration // commit Phase 1+2: lock write-set, validate read/node sets
	Log      time.Duration // commit Phase 3: install, unlock, redo-log handoff
	Fsync    time.Duration // group-commit durability wait
	Respond  time.Duration // result assembly after the commit point
	Retries  uint32        // OCC conflict retries before the commit
	TID      uint64        // the committed transaction id
}

// SpanNames orders the timeline stages as they are encoded and printed.
var SpanNames = [6]string{"queue", "exec", "validate", "log", "fsync", "respond"}

// durs returns the stage durations in SpanNames order.
func (s *Spans) durs() [6]time.Duration {
	return [6]time.Duration{s.Queue, s.Exec, s.Validate, s.Log, s.Fsync, s.Respond}
}

// Total is the sum of all stages.
func (s *Spans) Total() time.Duration {
	var t time.Duration
	for _, d := range s.durs() {
		t += d
	}
	return t
}

func (s *Spans) String() string {
	d := s.durs()
	return fmt.Sprintf("tid=%x retries=%d queue=%v exec=%v validate=%v log=%v fsync=%v respond=%v",
		s.TID, s.Retries, d[0], d[1], d[2], d[3], d[4], d[5])
}

// SpansEncodedLen is the fixed size of the wire form: six u64 stage
// nanosecond values, the u64 TID, and the u32 retry count.
const SpansEncodedLen = 6*8 + 8 + 4

// AppendSpans appends the fixed binary form of s to dst. Negative stage
// durations (a clock anomaly) encode as zero so the wire form is always
// a valid timeline.
func AppendSpans(dst []byte, s *Spans) []byte {
	for _, d := range s.durs() {
		if d < 0 {
			d = 0
		}
		dst = binary.BigEndian.AppendUint64(dst, uint64(d))
	}
	dst = binary.BigEndian.AppendUint64(dst, s.TID)
	return binary.BigEndian.AppendUint32(dst, s.Retries)
}

// DecodeSpans parses exactly SpansEncodedLen bytes from b, returning
// the spans and the remainder. ok is false on truncation or a stage
// value that overflows a time.Duration.
func DecodeSpans(b []byte) (s Spans, rest []byte, ok bool) {
	if len(b) < SpansEncodedLen {
		return s, b, false
	}
	var d [6]time.Duration
	for i := range d {
		v := binary.BigEndian.Uint64(b[i*8:])
		if v > uint64(1<<63-1) {
			return s, b, false
		}
		d[i] = time.Duration(v)
	}
	s.Queue, s.Exec, s.Validate, s.Log, s.Fsync, s.Respond = d[0], d[1], d[2], d[3], d[4], d[5]
	s.TID = binary.BigEndian.Uint64(b[48:])
	s.Retries = binary.BigEndian.Uint32(b[56:])
	return s, b[SpansEncodedLen:], true
}
