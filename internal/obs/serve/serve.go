// Package serve is the library's embedded HTTP ops server: a
// zero-dependency live window into a running check or exploration. Any
// CLI or library caller attaches it to the process's obs instruments and
// gets
//
//	/metrics   Prometheus text exposition of the obs.Metrics registry
//	/statusz   live run status (JSON, HTML, or SSE with ?watch=1)
//	/flightz   the flight-recorder ring as JSON lines
//	/runsz     completed run records (calgo.run/v1) from the run-history
//	           store, filterable by ?tool=&verdict=&since=&limit=
//	/queryz    run-history queries (calgo.query/v1): record listings and
//	           per-cell bench regressions, as JSON or an HTML table
//	/debug/    the standard pprof and expvar handlers
//
// The server only reads the instruments it is given — the search hot
// paths stay untouched, so a detached server costs nothing and an
// attached one costs exactly what the instruments already cost.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	_ "net/http/pprof" // mount /debug/pprof on http.DefaultServeMux
	"runtime"
	"strings"
	"sync"
	"time"

	"calgo/internal/obs"
	"calgo/internal/render"
	"calgo/internal/runstore"
)

// StatuszSchema versions the /statusz JSON document; the shape is
// specified in EXPERIMENTS.md ("Live ops endpoints").
const StatuszSchema = "calgo.statusz/v1"

// Config wires a Server to the process's observability instruments. Any
// field may be nil/empty: the corresponding endpoint degrades gracefully
// (empty metrics page, detached status, 404 flight recorder).
type Config struct {
	// Tool is the owning CLI's name, stamped on /statusz.
	Tool string
	// Metrics backs /metrics and the memo/runtime sections of /statusz.
	Metrics *obs.Metrics
	// Flight backs /flightz.
	Flight *obs.FlightRecorder
	// Live backs the run section of /statusz.
	Live *obs.LiveRun
	// Store backs /runsz and /queryz. Nil gets a bounded in-memory ring
	// (runstore.DefaultRingCapacity records, evictions counted on
	// runstore.evicted), so a long-lived process can no longer grow its
	// report slice without limit; daemons pass a durable filesystem
	// store here to serve pre-restart history.
	Store runstore.Store
	// MaxResults clamps /runsz and /queryz listings server-side
	// (default runstore.DefaultMaxList; < 0 disables), so an unbounded
	// query cannot wedge an ops goroutine serializing the whole history.
	MaxResults int
}

// Server is the ops endpoint. Construct with New, mount Handler on any
// mux or call Start to listen. Shutdown stops a started listener
// gracefully — in-flight requests finish and SSE watchers are drained
// with a final frame — while Close severs everything at once.
type Server struct {
	cfg Config

	store              runstore.Store
	version, goVersion string

	mu     sync.Mutex
	runs   []render.Run
	notes  []string
	mounts map[string]http.Handler

	srv *http.Server
	ln  net.Listener

	// closing is closed by Shutdown/Close; long-lived handlers (the
	// /statusz SSE watchers) select on it so a graceful stop is not held
	// hostage by connected clients.
	closing   chan struct{}
	closeOnce sync.Once
}

// New returns an unstarted server over the given instruments. The
// registry (when present) gains the conventional build_info gauge, so
// /metrics and /statusz report the same version identity.
func New(cfg Config) *Server {
	st := cfg.Store
	if st == nil {
		st = runstore.NewRing(runstore.DefaultRingCapacity, cfg.Metrics)
	}
	if cfg.MaxResults == 0 {
		cfg.MaxResults = runstore.DefaultMaxList
	}
	version, goVersion := obs.BuildInfo()
	cfg.Metrics.SetBuildInfo(version, goVersion)
	return &Server{
		cfg: cfg, store: st, closing: make(chan struct{}),
		version: version, goVersion: goVersion,
	}
}

// Store returns the run-history store backing /runsz and /queryz.
func (s *Server) Store() runstore.Store {
	if s == nil {
		return nil
	}
	return s.store
}

// Mount registers an additional handler on the ops mux under the given
// pattern (http.ServeMux syntax), so subsystems like the cald job API
// share the ops surface (and its lifecycle) instead of running a second
// server. Call before Handler or Start.
func (s *Server) Mount(pattern string, h http.Handler) {
	if s == nil || h == nil {
		return
	}
	s.mu.Lock()
	if s.mounts == nil {
		s.mounts = make(map[string]http.Handler)
	}
	s.mounts[pattern] = h
	s.mu.Unlock()
}

// AddRun records a completed run summary, shown on /statusz.
func (s *Server) AddRun(r render.Run) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.runs = append(s.runs, r)
	s.mu.Unlock()
}

// AddNote records a free-form note, shown on /statusz.
func (s *Server) AddNote(note string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.notes = append(s.notes, note)
	s.mu.Unlock()
}

// AddReport publishes a completed calgo.report/v1 document on /runsz,
// wrapped as a run record in the backing store (which bounds or
// persists it according to the backend).
func (s *Server) AddReport(r *render.Report) {
	if s == nil || r == nil {
		return
	}
	s.AddRecord(&runstore.Record{Tool: r.Tool, Kind: runstore.KindReport, Report: r})
}

// AddRecord publishes a run record (with caller-chosen labels) on
// /runsz via the backing store.
func (s *Server) AddRecord(rec *runstore.Record) {
	if s == nil || rec == nil {
		return
	}
	_ = s.store.Put(rec) // the store logs/counts its own failures
}

// Handler returns the ops mux, mountable on any http server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/flightz", s.handleFlightz)
	mux.HandleFunc("/runsz", s.handleRunsz)
	mux.HandleFunc("/queryz", s.handleQueryz)
	// Delegate /debug/ to the process-wide mux: net/http/pprof and
	// expvar register there on import.
	mux.Handle("/debug/", http.DefaultServeMux)
	s.mu.Lock()
	for pattern, h := range s.mounts {
		mux.Handle(pattern, h)
	}
	s.mu.Unlock()
	return mux
}

// Start listens on addr (host:port; ":0" picks a free port) and serves
// the ops mux until Close. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := s.Handler() // before the lock: Handler snapshots mounts under s.mu
	s.mu.Lock()
	s.ln = ln
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	srv := s.srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // Serve always returns non-nil on Close
	return ln.Addr(), nil
}

// Addr returns the bound address, or nil before Start.
func (s *Server) Addr() net.Addr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops a started server gracefully: new connections are
// refused, watch streams are drained with a final frame and a bye
// event, and in-flight requests get until ctx's deadline to complete
// before being severed. Safe to call on an unstarted or nil server.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() { close(s.closing) })
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	if err := srv.Shutdown(ctx); err != nil {
		// The deadline expired with handlers still running; sever them.
		return srv.Close()
	}
	return nil
}

// Close stops a started server, severing open watch streams. Safe to
// call on an unstarted or nil server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() { close(s.closing) })
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html><title>calgo ops: %[1]s</title>
<h1>calgo ops — %[1]s</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/statusz">/statusz</a> — live run status (JSON; <a href="/statusz?format=html">HTML</a>, <a href="/statusz?watch=1">SSE</a>)</li>
<li><a href="/flightz">/flightz</a> — flight-recorder ring (JSON lines)</li>
<li><a href="/runsz">/runsz</a> — completed run records (?tool=&amp;verdict=&amp;since=&amp;limit=)</li>
<li><a href="/queryz">/queryz</a> — run-history queries (<a href="/queryz?mode=regressions&amp;format=html">regressions</a>)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — profiles</li>
<li><a href="/debug/vars">/debug/vars</a> — expvar</li>
</ul>
`, html.EscapeString(s.cfg.Tool))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.cfg.Metrics.Snapshot()) //nolint:errcheck // client gone
}

// MemoStatus summarizes memoization effectiveness for /statusz.
type MemoStatus struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// RuntimeStatus is the point-in-time runtime health section of /statusz.
type RuntimeStatus struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	NumGC          uint32 `json:"num_gc"`
}

// RunSummary is one completed run on /statusz (name + verdict only; the
// full evidence lives in the /runsz report).
type RunSummary struct {
	Name    string `json:"name"`
	Verdict string `json:"verdict"`
	Detail  string `json:"detail,omitempty"`
}

// Statusz is the /statusz JSON document.
type Statusz struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	// Version/GoVersion mirror the build_info gauge's labels, so
	// regressions can be correlated with daemon versions from either
	// surface.
	Version   string         `json:"version,omitempty"`
	GoVersion string         `json:"go_version,omitempty"`
	Run       obs.LiveStatus `json:"run"`
	Memo      *MemoStatus    `json:"memo,omitempty"`
	Runtime   RuntimeStatus  `json:"runtime"`
	Runs      []RunSummary   `json:"runs,omitempty"`
	Notes     []string       `json:"notes,omitempty"`
}

// statusz assembles the current document.
func (s *Server) statusz() Statusz {
	doc := Statusz{
		Schema: StatuszSchema, Tool: s.cfg.Tool,
		Version: s.version, GoVersion: s.goVersion,
		Run: s.cfg.Live.Status(),
	}
	if doc.Run.Tool == "" {
		doc.Run.Tool = s.cfg.Tool
	}
	snap := s.cfg.Metrics.Snapshot()
	hits, misses := snap.Counters["check.memo_hits"], snap.Counters["check.memo_misses"]
	if hits+misses > 0 {
		doc.Memo = &MemoStatus{Hits: hits, Misses: misses,
			HitRate: float64(hits) / float64(hits+misses)}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	doc.Runtime = RuntimeStatus{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		NumGC:          ms.NumGC,
	}
	s.mu.Lock()
	for _, r := range s.runs {
		doc.Runs = append(doc.Runs, RunSummary{Name: r.Name, Verdict: r.Verdict, Detail: r.Detail})
	}
	doc.Notes = append(doc.Notes, s.notes...)
	s.mu.Unlock()
	return doc
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Query().Get("watch") != "":
		s.watchStatusz(w, r)
	case r.URL.Query().Get("format") == "html" ||
		(r.URL.Query().Get("format") == "" && strings.Contains(r.Header.Get("Accept"), "text/html")):
		s.htmlStatusz(w)
	default:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.statusz()) //nolint:errcheck // client gone
	}
}

// watchInterval bounds the SSE frame rate: default 1s, floor 50ms so a
// hostile ?interval can't melt the process.
const (
	defaultWatchInterval = time.Second
	minWatchInterval     = 50 * time.Millisecond
)

// watchStatusz streams the statusz document over Server-Sent Events: an
// immediate frame, then one per interval until the client goes away or
// the server closes.
func (s *Server) watchStatusz(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	interval := defaultWatchInterval
	if iv := r.URL.Query().Get("interval"); iv != "" {
		d, err := time.ParseDuration(iv)
		if err != nil {
			http.Error(w, "bad interval: "+err.Error(), http.StatusBadRequest)
			return
		}
		interval = d
	}
	if interval < minWatchInterval {
		interval = minWatchInterval
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")

	emit := func() bool {
		b, err := json.Marshal(s.statusz())
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !emit() {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			// Graceful stop: hand the watcher one last frame and an
			// explicit bye event, then end the stream so Shutdown's drain
			// completes instead of waiting on connected clients.
			emit()
			fmt.Fprint(w, "event: bye\ndata: {}\n\n")
			fl.Flush()
			return
		case <-t.C:
			if !emit() {
				return
			}
		}
	}
}

// htmlStatusz serves a self-contained page that renders the watch
// stream: a live-updating view with zero external assets.
func (s *Server) htmlStatusz(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html><title>statusz: %[1]s</title>
<style>body{font-family:monospace;margin:2em}#s{white-space:pre}</style>
<h1>statusz — %[1]s</h1><div id="s">connecting…</div>
<script>
new EventSource("/statusz?watch=1&interval=1s").onmessage = function (e) {
  document.getElementById("s").textContent =
    JSON.stringify(JSON.parse(e.data), null, 2);
};
</script>
`, html.EscapeString(s.cfg.Tool))
}

func (s *Server) handleFlightz(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Flight == nil {
		http.Error(w, "no flight recorder attached (run with -trace or -report)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Calgo-Flight-Total", fmt.Sprint(s.cfg.Flight.Total()))
	enc := json.NewEncoder(w)
	for _, e := range s.cfg.Flight.Events() {
		if err := enc.Encode(e); err != nil {
			return
		}
	}
}

// clampLimit applies the server-side result bound: unbounded (0) or
// over-bound requests are pulled down to MaxResults, so a slow or
// unbounded query cannot wedge an ops goroutine.
func (s *Server) clampLimit(requested int) int {
	if s.cfg.MaxResults < 0 {
		return requested
	}
	if requested == 0 || requested > s.cfg.MaxResults {
		return s.cfg.MaxResults
	}
	return requested
}

// handleRunsz serves the run records as a JSON array, filterable by
// ?tool=&verdict=&kind=&since=&until=&limit= (and repeatable
// ?label=key:value selectors), newest Limit kept — clamped at the
// server's MaxResults. The listing honors request cancellation: a
// client that goes away stops the scan.
func (s *Server) handleRunsz(w http.ResponseWriter, r *http.Request) {
	q, err := runstore.QueryFromValues(r.URL.Query(), time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f := q.Filter
	f.Limit = s.clampLimit(f.Limit)
	records, err := runstore.ListContext(r.Context(), s.store, f)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nobody to answer
		}
		http.Error(w, "runstore: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if records == nil {
		records = []*runstore.Record{} // an empty store is [], not null
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(records) //nolint:errcheck // client gone
}

// handleQueryz answers run-history queries (calgo.query/v1): record
// listings (?mode=runs, the default) and per-cell bench regressions
// (?mode=regressions&baseline=&table=&top=), as JSON or, with
// ?format=html, a self-contained HTML table. Limits are clamped at the
// server's MaxResults, and evaluation stops when the client goes away.
func (s *Server) handleQueryz(w http.ResponseWriter, r *http.Request) {
	q, err := runstore.QueryFromValues(r.URL.Query(), time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	q.Limit = s.clampLimit(q.Limit)
	q.Top = s.clampLimit(q.Top)
	res, err := runstore.RunContext(r.Context(), s.store, q)
	if err != nil {
		if r.Context().Err() != nil {
			return // client gone; nobody to answer
		}
		http.Error(w, "runstore: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if r.URL.Query().Get("format") == "html" ||
		(r.URL.Query().Get("format") == "" && strings.Contains(r.Header.Get("Accept"), "text/html")) {
		s.htmlQueryz(w, res)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(res) //nolint:errcheck // client gone
}

// htmlQueryz renders a query result as a zero-asset HTML table.
func (s *Server) htmlQueryz(w http.ResponseWriter, res *runstore.Result) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html><title>queryz: %[1]s</title>
<style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #999;padding:.2em .6em;text-align:left}td.n{text-align:right}</style>
<h1>queryz — %[1]s (%[2]s)</h1>
`, html.EscapeString(s.cfg.Tool), html.EscapeString(res.Mode))
	if res.Mode == runstore.ModeRegressions {
		fmt.Fprintf(w, "<p>current <code>%s</code> (%s) vs baseline <code>%s</code> (%s); %d comparable cells, %d skipped</p>\n",
			html.EscapeString(res.CurrentID), html.EscapeString(res.CurrentTime),
			html.EscapeString(res.BaselineID), html.EscapeString(res.BaselineTime),
			res.Total, res.Skipped)
		fmt.Fprint(w, "<table><tr><th>table</th><th>row</th><th>column</th><th>base</th><th>current</th><th>delta</th></tr>\n")
		for _, d := range res.Deltas {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td class=n>%d</td><td class=n>%.0f</td><td class=n>%.0f</td><td class=n>%+.1f%%</td></tr>\n",
				html.EscapeString(d.Table), html.EscapeString(d.Row), d.Column, d.Base, d.Cur, d.Pct)
		}
		fmt.Fprint(w, "</table>\n")
		return
	}
	fmt.Fprintf(w, "<p>%d matching record(s)</p>\n<table><tr><th>id</th><th>time</th><th>tool</th><th>kind</th><th>verdict</th><th>detail</th></tr>\n", res.Total)
	for _, run := range res.Runs {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			html.EscapeString(run.ID), html.EscapeString(run.Time), html.EscapeString(run.Tool),
			html.EscapeString(run.Kind), html.EscapeString(run.Verdict), html.EscapeString(run.Detail))
	}
	fmt.Fprint(w, "</table>\n")
}
