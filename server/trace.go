package server

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"silo"
	"silo/internal/trace"
	"silo/wire"
)

// now reads the database's clock — the same clock the commit phases are
// timed on, so server-side spans (queue wait, respond) and engine-side
// spans (execute, validate, log) form one coherent timeline.
func (s *Server) now() time.Duration { return s.db.Store().Now() }

// opCounts is a frame's per-kind op breakdown, indexed by request kind.
type opCounts [int(wire.KindRequestMax) + 1]uint32

// String renders the non-zero counts, e.g. "{GET:3,PUT:2}"; empty when
// nothing was counted.
func (c *opCounts) String() string {
	var b []byte
	for k, n := range c {
		if n == 0 {
			continue
		}
		if b == nil {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%s:%d", wire.Kind(k), n)
	}
	if b == nil {
		return ""
	}
	return string(append(b, '}'))
}

// slowOp is one captured slow operation: what ran, how long each stage
// took, and how it ended.
type slowOp struct {
	At     time.Duration // store-clock time the op completed
	Kind   wire.Kind     // frame kind (TXN for multi-op frames)
	Table  string        // table (or index) the frame wrote most; see slowAttr
	Tables int           // distinct tables (or indexes) the frame touched
	Ops    int           // ops in the frame
	Counts opCounts      // per-kind op breakdown
	Total  time.Duration // queue wait + execution, the client-visible latency
	Spans  silo.TxnSpans // stage timeline (zero stages for untraceable kinds)
	Err    string        // error text when the op failed, else ""
}

// slowCap bounds the recent-slow buffer; older captures are overwritten.
const slowCap = 64

// slowBuf is the bounded ring of recent slow operations. Captures are
// rare by construction (only ops beyond the threshold land here), so a
// mutex is fine.
type slowBuf struct {
	mu  sync.Mutex
	buf [slowCap]slowOp
	n   uint64 // total captured; buf[(n-1)%slowCap] is the newest
}

func (b *slowBuf) add(op slowOp) {
	b.mu.Lock()
	b.buf[b.n%slowCap] = op
	b.n++
	b.mu.Unlock()
}

// snapshot returns the surviving captures oldest first, plus the total
// ever captured (total − len(ops) were overwritten).
func (b *slowBuf) snapshot() (ops []slowOp, total uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.n
	keep := n
	if keep > slowCap {
		keep = slowCap
	}
	ops = make([]slowOp, 0, keep)
	for i := n - keep; i < n; i++ {
		ops = append(ops, b.buf[i%slowCap])
	}
	return ops, n
}

// tableNamer resolves table ids to names for flight-recorder rendering.
// It snapshots the current table set; ids created after the snapshot
// render numerically, which is fine for a debug view.
func (s *Server) tableNamer() trace.TableNamer {
	m := map[uint32]string{}
	for _, t := range s.db.Tables() {
		m[t.ID] = t.Name
	}
	return func(id uint32) string { return m[id] }
}

// writeSlowText renders the slow buffer for /debug/slow.
func writeSlowText(w io.Writer, ops []slowOp, total uint64, threshold time.Duration) {
	fmt.Fprintf(w, "slow ops: %d captured (threshold %s), newest last\n", total, threshold)
	if total > uint64(len(ops)) {
		fmt.Fprintf(w, "oldest %d overwritten\n", total-uint64(len(ops)))
	}
	for i := range ops {
		op := &ops[i]
		table := op.Table
		if op.Tables > 1 {
			// A multi-table frame names its dominant write table plus how
			// many more tables rode along.
			table = fmt.Sprintf("%s(+%d)", table, op.Tables-1)
		}
		fmt.Fprintf(w, "at=%-12s %-6s table=%s ops=%d", op.At, op.Kind, table, op.Ops)
		if breakdown := op.Counts.String(); breakdown != "" && (op.Ops > 1 || op.Kind == wire.KindTxn || op.Kind == wire.KindTrace) {
			fmt.Fprint(w, breakdown)
		}
		fmt.Fprintf(w, " total=%s", op.Total)
		if sp := &op.Spans; sp.Total() > 0 {
			fmt.Fprintf(w, " [%s]", sp)
			if sp.Retries > 0 {
				fmt.Fprintf(w, " retries=%d", sp.Retries)
			}
		}
		if op.Err != "" {
			fmt.Fprintf(w, " err=%q", op.Err)
		}
		fmt.Fprintln(w)
	}
}

// jsonSlowOp is the JSON shape of one slow-op capture.
type jsonSlowOp struct {
	AtNs      int64             `json:"at_ns"`
	Kind      string            `json:"kind"`
	Table     string            `json:"table,omitempty"`
	Tables    int               `json:"tables,omitempty"`
	Ops       int               `json:"ops"`
	OpCounts  map[string]uint32 `json:"op_counts,omitempty"`
	TotalNs   int64             `json:"total_ns"`
	QueueNs   int64             `json:"queue_ns"`
	ExecNs    int64             `json:"exec_ns"`
	ValidNs   int64             `json:"validate_ns"`
	LogNs     int64             `json:"log_ns"`
	FsyncNs   int64             `json:"fsync_ns"`
	RespondNs int64             `json:"respond_ns"`
	Retries   uint32            `json:"retries,omitempty"`
	TID       string            `json:"tid,omitempty"`
	Err       string            `json:"err,omitempty"`
}

// writeSlowJSON renders the slow buffer as a JSON document.
func writeSlowJSON(w io.Writer, ops []slowOp, total uint64, threshold time.Duration) error {
	doc := struct {
		Captured    uint64       `json:"captured"`
		ThresholdNs int64        `json:"threshold_ns"`
		Ops         []jsonSlowOp `json:"ops"`
	}{Captured: total, ThresholdNs: threshold.Nanoseconds(), Ops: []jsonSlowOp{}}
	for i := range ops {
		op := &ops[i]
		sp := &op.Spans
		j := jsonSlowOp{
			AtNs: op.At.Nanoseconds(), Kind: op.Kind.String(), Table: op.Table,
			Tables: op.Tables,
			Ops:    op.Ops, TotalNs: op.Total.Nanoseconds(),
			QueueNs: sp.Queue.Nanoseconds(), ExecNs: sp.Exec.Nanoseconds(),
			ValidNs: sp.Validate.Nanoseconds(), LogNs: sp.Log.Nanoseconds(),
			FsyncNs: sp.Fsync.Nanoseconds(), RespondNs: sp.Respond.Nanoseconds(),
			Retries: sp.Retries, Err: op.Err,
		}
		if sp.TID != 0 {
			j.TID = fmt.Sprintf("%x", sp.TID)
		}
		for k, n := range op.Counts {
			if n > 0 {
				if j.OpCounts == nil {
					j.OpCounts = make(map[string]uint32)
				}
				j.OpCounts[wire.Kind(k).String()] = n
			}
		}
		doc.Ops = append(doc.Ops, j)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
