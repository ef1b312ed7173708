package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"calgo/internal/obs"
	"calgo/internal/render"
	"calgo/internal/runstore"
	"calgo/internal/sched"
)

func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return resp.StatusCode, b.String(), resp.Header
}

func TestIndex(t *testing.T) {
	ts := testServer(t, Config{Tool: "caltest"})
	code, body, _ := get(t, ts.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("index status = %d", code)
	}
	for _, want := range []string{"caltest", "/metrics", "/statusz", "/flightz", "/runsz", "/debug/pprof"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	if code, _, _ := get(t, ts.URL+"/nosuch"); code != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", code)
	}
}

func TestStatuszJSON(t *testing.T) {
	m := obs.NewMetrics()
	m.Counter("check.memo_hits").Add(30)
	m.Counter("check.memo_misses").Add(10)
	l := obs.NewLiveRun("caltest")
	l.StartSearch("check", 100, func() int64 { return 42 }, 2)
	srv := New(Config{Tool: "caltest", Metrics: m, Live: l})
	srv.AddRun(render.Run{Name: "h1.txt", Verdict: "OK"})
	srv.AddNote("hello")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, hdr := get(t, ts.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var doc Statusz
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("statusz is not JSON: %v\n%s", err, body)
	}
	if doc.Schema != StatuszSchema || doc.Tool != "caltest" {
		t.Fatalf("schema/tool = %q/%q", doc.Schema, doc.Tool)
	}
	if !doc.Run.Searching || doc.Run.States != 42 || doc.Run.Budget != 100 {
		t.Fatalf("run = %+v", doc.Run)
	}
	if doc.Memo == nil || doc.Memo.Hits != 30 || doc.Memo.HitRate != 0.75 {
		t.Fatalf("memo = %+v", doc.Memo)
	}
	if doc.Runtime.Goroutines <= 0 || doc.Runtime.HeapAllocBytes == 0 {
		t.Fatalf("runtime = %+v", doc.Runtime)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Name != "h1.txt" || doc.Runs[0].Verdict != "OK" {
		t.Fatalf("runs = %+v", doc.Runs)
	}
	if len(doc.Notes) != 1 || doc.Notes[0] != "hello" {
		t.Fatalf("notes = %+v", doc.Notes)
	}
}

func TestStatuszDetachedInstruments(t *testing.T) {
	// All-nil config: every section must degrade, not panic.
	ts := testServer(t, Config{Tool: "bare"})
	code, body, _ := get(t, ts.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz status = %d", code)
	}
	var doc Statusz
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Memo != nil {
		t.Fatalf("memo without metrics = %+v", doc.Memo)
	}
	if doc.Run.Phase != "detached" {
		t.Fatalf("run.phase = %q, want detached", doc.Run.Phase)
	}
}

func TestStatuszHTML(t *testing.T) {
	ts := testServer(t, Config{Tool: "caltest"})
	for _, url := range []string{ts.URL + "/statusz?format=html"} {
		code, body, hdr := get(t, url)
		if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "text/html") {
			t.Fatalf("%s: status %d, content-type %q", url, code, hdr.Get("Content-Type"))
		}
		if !strings.Contains(body, "EventSource") {
			t.Errorf("%s: page has no live stream wiring", url)
		}
	}
	// An Accept: text/html request (a browser) also gets the page.
	req, _ := http.NewRequest("GET", ts.URL+"/statusz", nil)
	req.Header.Set("Accept", "text/html,application/xhtml+xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Errorf("browser Accept got %q", resp.Header.Get("Content-Type"))
	}
}

// exploreState is a synthetic 2^width-state transition system: threads
// set bits until all are set. Rich enough branching to keep a bounded
// exploration busy while the watch stream is observed.
type exploreState struct{ n, width int }

func (s exploreState) Key() string { return strconv.Itoa(s.n) }
func (s exploreState) Done() bool  { return s.n == 1<<s.width-1 }
func (s exploreState) Successors() []sched.Succ {
	var out []sched.Succ
	for i := 0; i < s.width; i++ {
		if s.n&(1<<i) == 0 {
			out = append(out, sched.Succ{Thread: i, Label: "set", Next: exploreState{s.n | 1<<i, s.width}})
		}
	}
	return out
}

// TestStatuszWatchSSE pins the acceptance criterion: during a bounded
// exploration, /statusz?watch=1 emits at least two SSE frames carrying
// the live run document.
func TestStatuszWatchSSE(t *testing.T) {
	live := obs.NewLiveRun("caltest")
	ts := testServer(t, Config{Tool: "caltest", Live: live})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Loop bounded explorations until the test is over, so the watch
		// stream observes a live search no matter how fast one pass is.
		for ctx.Err() == nil {
			sched.Explore(ctx, exploreState{width: 16}, //nolint:errcheck // ErrInterrupted expected at cancel
				sched.WithLive(live), sched.WithMaxStates(1<<17))
		}
	}()
	defer func() { cancel(); <-done }()

	resp, err := http.Get(ts.URL + "/statusz?watch=1&interval=50ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q, want text/event-stream", ct)
	}

	frames := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	for frames < 2 {
		select {
		case <-deadline:
			t.Fatalf("only %d SSE frames before deadline", frames)
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed after %d frames: %v", frames, sc.Err())
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var doc Statusz
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &doc); err != nil {
				t.Fatalf("frame %d is not a statusz document: %v\n%s", frames, err, line)
			}
			if doc.Schema != StatuszSchema {
				t.Fatalf("frame schema = %q", doc.Schema)
			}
			frames++
		}
	}
}

func TestStatuszWatchBadInterval(t *testing.T) {
	ts := testServer(t, Config{Tool: "caltest"})
	code, _, _ := get(t, ts.URL+"/statusz?watch=1&interval=bogus")
	if code != http.StatusBadRequest {
		t.Fatalf("bad interval status = %d, want 400", code)
	}
}

func TestFlightz(t *testing.T) {
	fl := obs.NewFlightRecorder(8)
	fl.SearchStart(3)
	fl.NodeExpand(1, 10)
	fl.SearchEnd("OK", 10)
	ts := testServer(t, Config{Tool: "caltest", Flight: fl})

	code, body, hdr := get(t, ts.URL+"/flightz")
	if code != http.StatusOK {
		t.Fatalf("flightz status = %d", code)
	}
	if got := hdr.Get("X-Calgo-Flight-Total"); got != "3" {
		t.Fatalf("flight total header = %q, want 3", got)
	}
	var events []obs.Event
	for i, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is not an event: %v\n%s", i, err, line)
		}
		events = append(events, e)
	}
	if len(events) != 3 || events[0].Kind != obs.EvSearchStart || events[2].Verdict != "OK" {
		t.Fatalf("events = %+v", events)
	}

	// Without a recorder the endpoint 404s with advice.
	bare := testServer(t, Config{Tool: "caltest"})
	if code, _, _ := get(t, bare.URL+"/flightz"); code != http.StatusNotFound {
		t.Fatalf("detached flightz status = %d, want 404", code)
	}
}

func TestRunsz(t *testing.T) {
	srv := New(Config{Tool: "caltest"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Empty process: an empty JSON array, not an error.
	code, body, _ := get(t, ts.URL+"/runsz")
	if code != http.StatusOK {
		t.Fatalf("runsz status = %d", code)
	}
	var docs []*runstore.Record
	if err := json.Unmarshal([]byte(body), &docs); err != nil || len(docs) != 0 {
		t.Fatalf("empty runsz = %q (err %v)", body, err)
	}

	rep := render.NewReport("caltest", time.Unix(100, 0))
	rep.Exit = 1
	rep.Runs = []render.Run{{Name: "bad.txt", Verdict: "VIOLATION"}}
	srv.AddReport(rep)
	_, body, _ = get(t, ts.URL+"/runsz")
	if err := json.Unmarshal([]byte(body), &docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].Schema != runstore.RecordSchema || docs[0].Kind != runstore.KindReport {
		t.Fatalf("runsz docs = %+v", docs)
	}
	if docs[0].Verdict != "VIOLATION" || docs[0].Tool != "caltest" {
		t.Fatalf("record = %+v", docs[0])
	}
	if docs[0].Report == nil || docs[0].Report.Schema != render.ReportSchema || docs[0].Report.Exit != 1 {
		t.Fatalf("wrapped report = %+v", docs[0].Report)
	}
	if docs[0].Report.Runs[0].Verdict != "VIOLATION" {
		t.Fatalf("run = %+v", docs[0].Report.Runs[0])
	}

	// The filter vocabulary: a verdict nothing has yields an empty set,
	// the verdict the record has yields it back.
	_, body, _ = get(t, ts.URL+"/runsz?verdict=OK")
	if err := json.Unmarshal([]byte(body), &docs); err != nil || len(docs) != 0 {
		t.Fatalf("filtered runsz = %q (err %v)", body, err)
	}
	_, body, _ = get(t, ts.URL+"/runsz?verdict=VIOLATION&tool=caltest&limit=5")
	if err := json.Unmarshal([]byte(body), &docs); err != nil || len(docs) != 1 {
		t.Fatalf("filtered runsz = %q (err %v)", body, err)
	}
	if code, body, _ := get(t, ts.URL+"/runsz?limit=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad limit: code %d body %q", code, body)
	}
}

func TestStartClose(t *testing.T) {
	srv := New(Config{Tool: "caltest", Metrics: obs.NewMetrics()})
	if srv.Addr() != nil {
		t.Fatal("Addr before Start must be nil")
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr().String() != addr.String() {
		t.Fatalf("Addr = %v, want %v", srv.Addr(), addr)
	}
	code, _, _ := get(t, fmt.Sprintf("http://%s/metrics", addr))
	if code != http.StatusOK {
		t.Fatalf("metrics over Start status = %d", code)
	}
	// /debug/ delegates to the process-wide mux (pprof, expvar).
	code, body, _ := get(t, fmt.Sprintf("http://%s/debug/vars", addr))
	if code != http.StatusOK || !strings.Contains(body, "cmdline") {
		t.Fatalf("debug/vars status = %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatal("nil Close must be a no-op")
	}
}

// TestMount pins that mounted handlers are served alongside the builtin
// routes — the hook cmd/cald uses to put the job API on the ops mux.
func TestMount(t *testing.T) {
	srv := New(Config{Tool: "caltest"})
	srv.Mount("/jobs", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "mounted")
	}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body, _ := get(t, ts.URL+"/jobs")
	if code != http.StatusOK || !strings.Contains(body, "mounted") {
		t.Fatalf("mounted route = %d %q", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/metrics"); code != http.StatusOK {
		t.Fatalf("builtin route lost after Mount: %d", code)
	}
}

// TestShutdownDrainsSSE pins graceful stop: an open /statusz?watch=1
// stream receives a final frame plus a bye event and ends, and Shutdown
// returns instead of hanging on the streaming connection.
func TestShutdownDrainsSSE(t *testing.T) {
	srv := New(Config{Tool: "caltest", Live: obs.NewLiveRun("caltest")})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/statusz?watch=1&interval=10s", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	// Wait for the immediate first frame so the stream is established.
	deadline := time.After(10 * time.Second)
	for established := false; !established; {
		select {
		case <-deadline:
			t.Fatal("no first SSE frame")
		case line := <-lines:
			established = strings.HasPrefix(line, "data: ")
		}
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	sawBye := false
	for line := range lines {
		if line == "event: bye" {
			sawBye = true
		}
	}
	if !sawBye {
		t.Error("watch stream ended without the bye event")
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on the streaming connection")
	}

	// Idempotent, and nil-safe.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	var nilSrv *Server
	if err := nilSrv.Shutdown(context.Background()); err != nil {
		t.Fatal("nil Shutdown must be a no-op")
	}
}

func benchDoc(gen string, rate float64) *runstore.Bench {
	return &runstore.Bench{
		GOMAXPROCS: 4, Window: "60ms", Generated: gen,
		Tables: []runstore.BenchTable{{
			ID: "B1", Title: "stack", ColumnLabel: "goroutines", Columns: []int{1},
			Rows: []runstore.BenchRow{{Name: "treiber", OpsPerSec: []float64{rate}}},
		}},
	}
}

func TestQueryz(t *testing.T) {
	store := runstore.NewRing(16, nil)
	for i, gen := range []string{"2026-08-06T00:00:00Z", "2026-08-08T00:00:00Z"} {
		rec := runstore.BenchRecord(fmt.Sprintf("bench-%d", i), benchDoc(gen, float64(100+100*i)))
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	ts := testServer(t, Config{Tool: "caltest", Store: store})

	// Default mode lists records as a calgo.query/v1 document.
	code, body, hdr := get(t, ts.URL+"/queryz")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("queryz = %d %q", code, hdr.Get("Content-Type"))
	}
	var res runstore.Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.Schema != runstore.QuerySchema || res.Mode != runstore.ModeRuns || res.Total != 2 {
		t.Fatalf("result = %+v", res)
	}

	// Regressions mode computes per-cell deltas: 200 vs 100 = +100%.
	_, body, _ = get(t, ts.URL+"/queryz?mode=regressions")
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.CurrentID != "bench-1" || res.BaselineID != "bench-0" {
		t.Fatalf("picked %s vs %s", res.CurrentID, res.BaselineID)
	}
	if len(res.Deltas) != 1 || res.Deltas[0].Pct != 100 {
		t.Fatalf("deltas = %+v", res.Deltas)
	}

	// HTML rendering.
	code, body, hdr = get(t, ts.URL+"/queryz?mode=regressions&format=html")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "text/html") {
		t.Fatalf("html queryz = %d %q", code, hdr.Get("Content-Type"))
	}
	for _, want := range []string{"<table>", "treiber", "+100.0%", "bench-0"} {
		if !strings.Contains(body, want) {
			t.Errorf("html queryz missing %q", want)
		}
	}

	// A bad expression is the client's fault; an unanswerable query
	// (regressions with no baseline) is unprocessable, not a 500.
	if code, _, _ := get(t, ts.URL+"/queryz?mode=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad mode = %d", code)
	}
	if code, _, _ := get(t, ts.URL+"/queryz?fleet=1"); code != http.StatusBadRequest {
		t.Errorf("unknown key = %d", code)
	}
	empty := testServer(t, Config{Tool: "caltest"})
	if code, _, _ := get(t, empty.URL+"/queryz?mode=regressions"); code != http.StatusUnprocessableEntity {
		t.Errorf("empty regressions = %d", code)
	}
}

// TestRunszFSBackedRestart pins the daemon acceptance path: records
// published before a restart are served by the next server generation
// from the same store directory.
func TestRunszFSBackedRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := runstore.OpenFS(dir, runstore.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Tool: "cald", Store: store})
	rep := render.NewReport("cald", time.Unix(500, 0))
	rep.Runs = []render.Run{{Name: "job-1", Verdict: "OK"}}
	srv.AddRecord(&runstore.Record{
		Report: rep,
		Labels: map[string]string{"spec": "register", "mode": "cal"},
	})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store over the same directory, a fresh server.
	store2, err := runstore.OpenFS(dir, runstore.FSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ts := httptest.NewServer(New(Config{Tool: "cald", Store: store2}).Handler())
	defer ts.Close()
	_, body, _ := get(t, ts.URL+"/runsz?tool=cald&label=spec:register")
	var recs []*runstore.Record
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Verdict != "OK" || recs[0].Labels["mode"] != "cal" {
		t.Fatalf("pre-restart records = %+v", recs)
	}
	if recs[0].Report == nil || recs[0].Report.Runs[0].Name != "job-1" {
		t.Fatalf("wrapped report = %+v", recs[0].Report)
	}
}

// TestRunszEvictionMetric pins the satellite: the default ring bounds
// the formerly unbounded report slice and counts evictions on
// /metrics as calgo_runstore_evicted_total.
func TestRunszEvictionMetric(t *testing.T) {
	m := obs.NewMetrics()
	store := runstore.NewRing(2, m)
	srv := New(Config{Tool: "caltest", Metrics: m, Store: store})
	for i := 0; i < 5; i++ {
		rep := render.NewReport("caltest", time.Unix(int64(600+i), 0))
		srv.AddReport(rep)
	}
	if store.Len() != 2 {
		t.Fatalf("store len = %d", store.Len())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, body, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, "calgo_runstore_evicted_total 3") {
		t.Fatalf("metrics missing eviction counter:\n%s", body)
	}
}

// TestBuildInfoSurfaces pins the version-identity satellite: the same
// build identity appears as the labeled calgo_build_info gauge on
// /metrics and as version/go_version on /statusz.
func TestBuildInfoSurfaces(t *testing.T) {
	m := obs.NewMetrics()
	ts := testServer(t, Config{Tool: "caltest", Metrics: m})

	_, body, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, "calgo_build_info{") || !strings.Contains(body, `go_version="`+runtime.Version()+`"`) {
		t.Fatalf("metrics missing build_info gauge:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE calgo_build_info gauge") {
		t.Fatalf("build_info family untyped:\n%s", body)
	}

	_, body, _ = get(t, ts.URL+"/statusz")
	var doc Statusz
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.GoVersion != runtime.Version() || doc.Version == "" {
		t.Fatalf("statusz identity = %q/%q", doc.Version, doc.GoVersion)
	}
}

// TestRunszClampsResults pins the server-side bound: an unbounded
// /runsz request returns at most MaxResults records (newest kept).
func TestRunszClampsResults(t *testing.T) {
	store := runstore.NewRing(32, nil)
	for i := 0; i < 10; i++ {
		rec := &runstore.Record{Tool: "caltest", TimeNS: time.Unix(int64(700+i), 0).UnixNano(),
			Report: render.NewReport("caltest", time.Unix(int64(700+i), 0))}
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	ts := testServer(t, Config{Tool: "caltest", Store: store, MaxResults: 3})
	_, body, _ := get(t, ts.URL+"/runsz")
	var recs []*runstore.Record
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].TimeNS != time.Unix(709, 0).UnixNano() {
		t.Fatalf("clamped runsz = %d records (newest %v)", len(recs), recs)
	}
	// An explicit limit over the bound is clamped too; under it, honored.
	_, body, _ = get(t, ts.URL+"/runsz?limit=100")
	if err := json.Unmarshal([]byte(body), &recs); err != nil || len(recs) != 3 {
		t.Fatalf("limit=100 got %d records (err %v)", len(recs), err)
	}
	_, body, _ = get(t, ts.URL+"/runsz?limit=2")
	if err := json.Unmarshal([]byte(body), &recs); err != nil || len(recs) != 2 {
		t.Fatalf("limit=2 got %d records (err %v)", len(recs), err)
	}
}
