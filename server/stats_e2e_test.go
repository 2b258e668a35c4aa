package server_test

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"silo"
	"silo/client"
	"silo/internal/obs"
	"silo/server"
	"silo/wire"
)

// TestE2EStatsLifecycle walks the STATS frame through a server's life:
// a fresh snapshot is valid but quiet, a worked snapshot shows every
// layer's families with plausible values, and totals are monotone across
// consecutive snapshots.
func TestE2EStatsLifecycle(t *testing.T) {
	dir := t.TempDir()
	db, err := silo.Open(silo.Options{
		Workers:       2,
		EpochInterval: time.Millisecond,
		Durability:    &silo.DurabilityOptions{Dir: dir, Loggers: 1, Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.CreateTable("kv")
	srv := server.New(db, server.Options{DisableAutoCreate: true})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	cl, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Before any data traffic: the snapshot decodes and carries the core
	// families, with nothing committed over the wire yet.
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Get("silo_core_commits_total", "") == nil {
		t.Fatal("fresh snapshot missing silo_core_commits_total")
	}
	if got := snap.Value("silo_table_writes_total", "kv"); got != 0 {
		t.Fatalf("fresh kv writes = %d", got)
	}

	for i := 0; i < 32; i++ {
		if err := cl.Insert("kv", []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Get("kv", []byte{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Scan("kv", []byte{0}, nil, 10); err != nil {
		t.Fatal(err)
	}

	worked, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := worked.Value("silo_core_commits_total", ""); got < 32 {
		t.Errorf("commits = %d, want >= 32", got)
	}
	if got := worked.Value("silo_table_writes_total", "kv"); got != 32 {
		t.Errorf("kv writes = %d, want 32", got)
	}
	if got := worked.Value("silo_server_requests_total", ""); got < 35 {
		t.Errorf("server requests = %d, want >= 35", got)
	}
	for _, op := range []string{"INSERT", "GET", "SCAN"} {
		h := worked.Get("silo_server_request_ns", op)
		if h == nil || h.Hist.Count == 0 {
			t.Errorf("no %s latency series", op)
		}
	}
	if worked.Get("silo_wal_durable_epoch", "") == nil {
		t.Error("missing WAL families")
	}
	// The puts committed durably, so at least one logger pass fsynced.
	waitFor(t, func() bool {
		s, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		h := s.Get("silo_wal_fsync_ns", "")
		return h != nil && h.Hist.Count > 0
	}, "fsync histogram stayed empty")

	again, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if again.Value("silo_core_commits_total", "") < worked.Value("silo_core_commits_total", "") {
		t.Error("commit total went backwards")
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdminHandler drives the admin mux the -admin listener serves:
// /metrics speaks Prometheus text, /debug/vars is JSON with both snapshot
// series and process vars, and the pprof index answers — all while the
// server executes requests.
func TestAdminHandler(t *testing.T) {
	_, srv, cl := startServer(t, silo.Options{}, server.Options{}, client.Options{})
	for i := 0; i < 8; i++ {
		if err := cl.Insert("t", []byte{byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	body := httpGet(t, admin.URL+"/metrics")
	for _, want := range []string{
		"# TYPE silo_core_commits_total counter",
		"silo_table_writes_total{table=\"t\"} 8",
		"silo_server_request_ns_count{op=\"INSERT\"}",
		"silo_index_scans_total{mode=\"batched\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var vars map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, admin.URL+"/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["silo_core_commits_total"]; !ok {
		t.Error("/debug/vars missing snapshot series")
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars missing process vars")
	}

	if !strings.Contains(httpGet(t, admin.URL+"/debug/pprof/"), "goroutine") {
		t.Error("pprof index did not render")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// readmeMetric matches a metric name as README writes it: optionally with
// {a,b} shorthand for several families and a trailing {label}.
var readmeMetric = regexp.MustCompile(`silo_[a-z0-9_]*(\{[a-z0-9_,]+\}[a-z0-9_]*)*`)

// readmeFamilies returns every silo_* family README names.
func readmeFamilies(t *testing.T) map[string]bool {
	t.Helper()
	text, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, tok := range readmeMetric.FindAllString(string(text), -1) {
		if i := strings.LastIndexByte(tok, '{'); i >= 0 && strings.HasSuffix(tok, "}") && !strings.Contains(tok[i:], ",") {
			tok = tok[:i] // the series' label, not part of the family name
		}
		pre, rest, shorthand := strings.Cut(tok, "{")
		if !shorthand {
			out[tok] = true
			continue
		}
		alts, post, _ := strings.Cut(rest, "}")
		for _, a := range strings.Split(alts, ",") {
			out[pre+a+post] = true
		}
	}
	return out
}

// TestServerMetricFamiliesMatchREADME: the metric families a durable
// group-ack server registers after one request of each kind, together with
// every family db.Observe() exports for a database reopened — recovered —
// over a directory the checkpoint daemon has checkpointed, are exactly the
// silo_* names README documents. A family added, renamed or removed without
// its documentation (or the reverse) fails here.
func TestServerMetricFamiliesMatchREADME(t *testing.T) {
	db, srv, cl := startServer(t, durableOpts(filepath.Join(t.TempDir(), "log")),
		server.Options{Acks: server.AckGroup, DisableAutoCreate: true}, client.Options{})
	db.CreateTable("t")
	k := []byte("k")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(cl.Insert("t", k, be64(0)))
	must(cl.Put("t", k, be64(1)))
	_, err := cl.Add("t", k, 1)
	must(err)
	_, err = cl.Get("t", k)
	must(err)
	_, err = cl.Scan("t", nil, nil, 1)
	must(err)
	_, err = cl.Txn().Get("t", k).Exec()
	must(err)
	_, _, err = cl.Txn().Put("t", k, be64(2)).Trace()
	must(err)
	must(cl.CreateIndex("t_ix", "t", false, []wire.IndexSeg{{Off: 0, Len: 1}}))
	_, err = cl.IndexScan("t_ix", nil, nil, 1, false)
	must(err)
	_, err = cl.Schema()
	must(err)
	_, err = cl.Stats()
	must(err)
	must(cl.DropIndex("t_ix"))
	must(cl.Delete("t", k))

	var snap obs.Snapshot
	srv.CollectObs(&snap)
	snap.Samples = append(snap.Samples, reopenedEngineObs(t).Samples...)
	registered := map[string]bool{}
	for _, m := range snap.Samples {
		registered[m.Name] = true
	}
	documented := readmeFamilies(t)
	for name := range registered {
		if !documented[name] {
			t.Errorf("%s is registered but README does not mention it", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("README documents %s but neither the server nor the reopened engine registers it", name)
		}
	}
}

// reopenedEngineObs writes rows and an index under the checkpoint daemon
// until it has checkpointed, closes the database, reopens the directory
// with the daemon on, and returns the reopened database's snapshot.
func reopenedEngineObs(t *testing.T) *silo.ObsSnapshot {
	t.Helper()
	opts := durableOpts(t.TempDir())
	opts.SnapshotK = 2
	opts.Durability.CheckpointInterval = 5 * time.Millisecond
	db, err := silo.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := db.CreateTable("rows")
	if _, err := db.CreateIndexSpec(0, tbl, "rows_ix", false, []silo.IndexSeg{{FromValue: true, Off: 0, Len: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := db.RunDurable(0, func(tx *silo.Tx) error { return tx.Insert(tbl, []byte("k"), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st, _ := db.CheckpointDaemon()
		return st.Checkpoints > 0
	}, "the checkpoint daemon never checkpointed")
	db.Close()

	db, err = silo.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if res, err := db.Recover(); err != nil || res.CheckpointEpoch == 0 {
		t.Fatalf("reopen recovered from checkpoint %d: %v", res.CheckpointEpoch, err)
	}
	return db.Observe()
}
