package main

import (
	"fmt"
	"net"
	"time"

	"silo"
	"silo/client"
	"silo/server"
)

// wireEnv is an in-process server on a loopback port together with the
// client connections that load it: procs connections, each its own
// client.Client so a workload's window is exactly the number of callers
// parked on one connection.
type wireEnv struct {
	db      *silo.DB
	srv     *server.Server
	served  chan error
	clients []*client.Client
}

// serve starts server.New(db) on 127.0.0.1:0 and dials conns connections.
func serve(db *silo.DB, conns int, acks server.AckMode) (*wireEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &wireEnv{
		db:     db,
		srv:    server.New(db, server.Options{DisableAutoCreate: true, Acks: acks}),
		served: make(chan error, 1),
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		cl, err := client.Dial(ln.Addr().String(), client.Options{Conns: 1})
		if err != nil {
			e.stopServer()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, cl)
	}
	return e, nil
}

// stopServer closes the clients and the server and waits for the accept
// loop; the database stays open for embedded probes and verification.
// Safe to call twice.
func (e *wireEnv) stopServer() {
	for _, cl := range e.clients {
		cl.Close()
	}
	e.clients = nil
	if e.srv != nil {
		e.srv.Close()
		<-e.served
		e.srv = nil
	}
}

func (e *wireEnv) close() {
	e.stopServer()
	e.db.Close()
}

// snapshot is the cross-layer metrics snapshot a STATS frame would carry:
// every database layer plus the server's own families.
func (e *wireEnv) snapshot() *silo.ObsSnapshot {
	snap := e.db.Observe()
	e.srv.CollectObs(snap)
	return snap
}

// obsDelta reads what happened between two snapshots of one process.
type obsDelta struct {
	before, after *silo.ObsSnapshot
	elapsed       time.Duration
}

func (d obsDelta) counter(name, label string) float64 {
	return float64(d.after.Value(name, label) - d.before.Value(name, label))
}

// hist is the histogram of the observations made between the snapshots.
func (d obsDelta) hist(name, label string) silo.ObsHistSnapshot {
	var h silo.ObsHistSnapshot
	a := d.after.Get(name, label)
	if a == nil {
		return h
	}
	h = a.Hist
	if b := d.before.Get(name, label); b != nil {
		h.Count -= b.Hist.Count
		h.Sum -= b.Hist.Sum
		for i := range h.Buckets {
			h.Buckets[i] -= b.Hist.Buckets[i]
		}
	}
	return h
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
