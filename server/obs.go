package server

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"

	"silo/internal/obs"
	"silo/internal/trace"
	"silo/wire"
)

// workerObs is one worker context's metrics shard, uncontended:
// per-opcode request latency (measured around exec, so it includes
// transaction retries) and queue time. The latency array is sized from
// the real request-kind space; latIdx maps kinds to slots.
type workerObs struct {
	latency [int(wire.KindRequestMax) + 1]obs.Histogram // indexed by latIdx
	queue   obs.Histogram                               // ns from burst decode to execution start
}

// serverObs holds the cells shared across connections: pipeline depth,
// observed per request as its chain is queued (how many requests readers
// run ahead of their writers), and dispatches: bursts run plus remainders
// handed to helpers. Under group acks, parked counts the
// stamped write responses between their worker's finish and their
// writer's release, released counts the releases, and releaseLag is the
// wait between the two (ns).
type serverObs struct {
	depth      obs.Histogram
	dispatches obs.Counter
	parked     obs.Gauge
	released   obs.Counter
	releaseLag obs.Histogram
}

// statsKinds are the request kinds CollectObs reports latency series for.
var statsKinds = [...]wire.Kind{
	wire.KindGet, wire.KindPut, wire.KindInsert, wire.KindDelete,
	wire.KindScan, wire.KindAdd, wire.KindTxn, wire.KindCreateIndex,
	wire.KindIScan, wire.KindSchema, wire.KindDropIndex, wire.KindStats,
	wire.KindTrace,
}

// CollectObs appends the server's own metric families to snap: connection
// and request totals, per-opcode latency histograms merged across worker
// contexts (series with zero observations are skipped), queue time, and
// pipeline depth.
func (s *Server) CollectObs(snap *obs.Snapshot) {
	snap.Counter("silo_server_conns_total", "", "", s.conns64.Load())
	snap.Counter("silo_server_requests_total", "", "", s.requests64.Load())
	snap.Counter("silo_server_errors_total", "", "", s.errors64.Load())
	for _, k := range statsKinds {
		var h obs.HistSnapshot
		for _, o := range s.wobs {
			h.Merge(o.latency[latIdx(k)].Snapshot())
		}
		if h.Count == 0 {
			continue
		}
		snap.Histogram("silo_server_request_ns", "op", k.String(), h)
	}
	var q obs.HistSnapshot
	for _, o := range s.wobs {
		q.Merge(o.queue.Snapshot())
	}
	snap.Histogram("silo_server_queue_ns", "", "", q)
	snap.Histogram("silo_server_pipeline_depth", "", "", s.obs.depth.Snapshot())
	snap.Counter("silo_server_dispatches_total", "", "", s.obs.dispatches.Load())
	if s.ackMode == AckGroup {
		// Group acks' health: how many write responses await their epoch
		// right now, how many have been released durably, and the wait
		// from worker finish to writer release (the group-commit latency
		// each acknowledged write actually paid).
		snap.Gauge("silo_server_parked_responses", "", "", s.obs.parked.Load())
		snap.Counter("silo_server_released_total", "", "", s.obs.released.Load())
		snap.Histogram("silo_server_release_lag_ns", "", "", s.obs.releaseLag.Snapshot())
	}
}

// snapshot collects the full cross-layer snapshot one STATS frame or
// admin scrape serves: every database layer plus the server itself,
// sorted into canonical order.
func (s *Server) snapshot() *obs.Snapshot {
	snap := s.db.Observe()
	s.CollectObs(snap)
	snap.Sort()
	return snap
}

// execStats serves the STATS frame.
func (s *Server) execStats() wire.Response {
	return wire.Response{Kind: wire.KindStatsR, Stats: s.snapshot()}
}

// AdminHandler returns the server's admin HTTP handler, served by
// cmd/silo-server's -admin listener (never on the data port):
//
//	/metrics      the snapshot in Prometheus text exposition format
//	/debug/vars   the snapshot as expvar-style JSON (process vars included)
//	/debug/flight the flight recorder: hottest conflicting keys and the
//	              recent event timeline (text; ?format=json for JSON)
//	/debug/slow   recent slow-op captures (requires -slow-ms)
//	/debug/pprof  the standard runtime profiles
//
// Handlers take a fresh snapshot per request; scraping is safe while the
// server executes transactions.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		vars := s.snapshot().ExpvarMap()
		// Fold in the process-wide expvar vars (memstats, cmdline, and
		// anything the embedding program published).
		expvar.Do(func(kv expvar.KeyValue) {
			vars[kv.Key] = json.RawMessage(kv.Value.String())
		})
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(vars)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		events := s.db.Flight().Dump()
		names := s.tableNamer()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			trace.WriteJSON(w, events, names)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		trace.WriteText(w, events, names)
	})
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, r *http.Request) {
		ops, total := s.slow.snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			writeSlowJSON(w, ops, total, s.opts.SlowThreshold)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeSlowText(w, ops, total, s.opts.SlowThreshold)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
