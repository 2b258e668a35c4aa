package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanLine is one line of the -trace-out file: a span with the request it
// belongs to and the span that caused it. Times are nanoseconds since the
// run began, on the benchmark's clock.
type spanLine struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// maxLoggedRequests bounds the span file: the medians use every traced
// request, the file keeps the first this many (seven lines each).
const maxLoggedRequests = 20000

// span records a benchmark-side span around a direct call into a layer.
func (r *run) span(name string, start time.Time, d time.Duration) {
	s := int64(start.Sub(r.began))
	r.spans = append(r.spans, spanLine{Req: -1, Name: name, Start: s, End: s + int64(d)})
}

// logSpans turns the requests of a traced interval into span lines: the
// caller-side request span and, for a request that travelled as a TRACE
// frame, the server's stages under it. The server reports durations,
// not timestamps, so the children are laid end to end in stage order and
// centred in the request — the request's self time (client encode and
// decode, TCP both ways) is what is left on either side.
func (r *run) logSpans(kinds []string, reqs []reqSpan) {
	for i := range reqs[:min(len(reqs), maxLoggedRequests)] {
		q := &reqs[i]
		id := r.nextReq
		r.nextReq++
		parent := "request:" + kinds[q.kind]
		r.spans = append(r.spans, spanLine{Req: id, Name: parent, Start: int64(q.start), End: int64(q.end)})
		if !q.staged {
			continue
		}
		at := int64(q.start) + int64(q.self())/2
		for _, c := range []struct {
			name string
			d    time.Duration
		}{
			{"queue", q.sp.Queue}, {"exec", q.sp.Exec}, {"validate", q.sp.Validate},
			{"log", q.sp.Log}, {"fsync", q.sp.Fsync}, {"respond", q.sp.Respond},
		} {
			r.spans = append(r.spans, spanLine{Req: id, Name: c.name, Start: at, End: at + int64(c.d), Parent: parent})
			at += int64(c.d)
		}
	}
}

// writeSpans writes the spans kept in memory as JSON lines.
func (r *run) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
