package main

import (
	"bytes"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"silo"
	"silo/internal/workload/ycsb"
	"silo/server"
)

// ycsbConfig is -exp ycsb on 1000 keys, one worker, a 50 ms window.
func ycsbConfig(t *testing.T) config {
	cfg := config{
		seconds: 50 * time.Millisecond, warmup: 10 * time.Millisecond, runs: 1,
		workers: []int{1}, keys: 1000, logDir: t.TempDir(), loggers: 1,
	}
	cfg.ycsb.mix = ycsb.DefaultConfig(0)
	cfg.ycsb.conns = 1
	return cfg
}

func runYCSB(t *testing.T, cfg config) string {
	t.Helper()
	var out bytes.Buffer
	if err := ycsbExp(cfg, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	return out.String()
}

var rowOps = regexp.MustCompile(`(?m)^YCSB \w+ +workers=1 +txns/sec=([0-9]+) .* failed=[0-9]+$`)

// rowRate returns the txns/sec of the report's one row.
func rowRate(t *testing.T, report string) int {
	t.Helper()
	m := rowOps.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no YCSB row in the report:\n%s", report)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

func TestYCSBEmbeddedRowCountsOps(t *testing.T) {
	report := runYCSB(t, ycsbConfig(t))
	if rowRate(t, report) == 0 {
		t.Fatalf("the row counted no operations:\n%s", report)
	}
	if !strings.Contains(report, "lat p50=") || !strings.Contains(report, "\naborts:") {
		t.Fatalf("report lacks the latency or the aborts line:\n%s", report)
	}
}

func TestYCSBOverWireTraces(t *testing.T) {
	db, err := silo.Open(silo.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := server.New(db, server.Options{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	cfg := ycsbConfig(t)
	cfg.ycsb.addr, cfg.ycsb.load, cfg.ycsb.traceFrac = ln.Addr().String(), true, 1
	report := runYCSB(t, cfg)
	if rowRate(t, report) == 0 {
		t.Fatalf("the row counted no operations:\n%s", report)
	}
	for _, line := range []string{"\ntraced ", "\naborts:"} {
		if !strings.Contains(report, line) {
			t.Errorf("report lacks a %q line:\n%s", strings.TrimSpace(line), report)
		}
	}
}

func TestYCSBDurableRecoversLoadedKeys(t *testing.T) {
	cfg := ycsbConfig(t)
	cfg.ycsb.keepLog = true
	runYCSB(t, cfg)

	db, err := silo.Open(silo.Options{Workers: 1, Durability: &silo.DurabilityOptions{Dir: cfg.logDir}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.Table(ycsb.TableName)
	if tbl == nil {
		t.Fatalf("%s not recovered", ycsb.TableName)
	}
	err = db.Run(0, func(tx *silo.Tx) error {
		for k := range cfg.keys {
			if _, err := tx.Get(tbl, ycsb.Key(uint64(k), nil)); err != nil {
				t.Errorf("key %d: %v", k, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestYCSBRejectsFlagMisuse(t *testing.T) {
	for _, c := range []struct {
		name, want string
		set        func(*ycsbFlags)
	}{
		{"covering wider than the record", "-valuesize", func(y *ycsbFlags) { y.covering, y.mix.ValueSize = true, 8 }},
		{"snapshot scans without an index", "-snapshot-scans requires -index", func(y *ycsbFlags) { y.snapshot = true }},
		{"tracing an embedded store", "needs -addr", func(y *ycsbFlags) { y.traceFrac = 0.5 }},
	} {
		cfg := ycsbConfig(t)
		c.set(&cfg.ycsb)
		var out bytes.Buffer
		if err := ycsbExp(cfg, &out); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: ran anyway:\n%s", c.name, out.String())
		}
	}
}
