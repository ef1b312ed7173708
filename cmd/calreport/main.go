// Command calreport renders calgo.report/v1 run reports offline: it
// turns a saved report JSON — or a saved -metrics-json / -trace pair —
// into a self-contained Markdown document, without re-running any check.
//
// Usage:
//
//	calreport report.json                    # Markdown on stdout
//	calreport -o report.md report.json       # Markdown to a file
//	calreport -o report.json ...             # re-emit calgo.report/v1 JSON
//	calreport -metrics m.json -trace t.jsonl # assemble a report from a
//	                                         # saved metrics/flight pair
//	calreport -store DIR -query EXPR         # query a run-history store
//
// -store points at a run-history store directory (as maintained by
// `cald -store` or `calbench -auto`); a running daemon answers the
// same questions on /queryz. -query asks the question in the shared
// query grammar — `runs tool=cald verdict=VIOLATION since=168h` lists
// matching records, `regressions table=B1 top=5` computes per-cell
// perf deltas between the two newest trajectory points (see
// EXPERIMENTS.md "Run-history store"). -o renders the result as an
// aligned table (stdout), calgo.query/v1 JSON (.json) or Markdown
// (anything else).
//
// The positional argument must be a calgo.report/v1 document as written
// by any calgo CLI's -report flag. Alternatively -metrics takes a
// -metrics-json document and -trace a -trace JSON-lines file; calreport
// stitches the two into a fresh report (the metrics snapshot becomes the
// report's metrics section, the trace events its flight-recorder tail).
//
// With -serve the loaded report is additionally published on the shared
// ops endpoint (/runsz, with its metrics snapshot on /metrics), kept up
// for -serve-linger — a quick way to point a browser or a Prometheus
// scrape at a saved run:
//
//	calreport -serve :8080 -serve-linger 10m report.json
//
// Exit status: 0 on success, 2 on usage or input errors (including a
// schema mismatch).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"calgo"
	"calgo/internal/cliflags"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		metricsPath = flag.String("metrics", "", "assemble from this saved -metrics-json document")
		tracePath   = flag.String("trace", "", "assemble from this saved -trace JSON-lines file (the events become the flight-recorder tail)")
		tool        = flag.String("tool", "", "tool name to stamp on an assembled report (default: the metrics document's tool)")
		out         = flag.String("o", "-", "output path; \"-\" = stdout, a .json path re-emits calgo.report/v1 JSON, anything else renders Markdown")
		storeDir    = flag.String("store", "", "query the run-history store in this directory (as maintained by cald -store or calbench -auto) instead of rendering a report file")
		queryExpr   = flag.String("query", "", "with -store: the query expression — e.g. 'runs tool=cald verdict=VIOLATION since=168h' or 'regressions table=B1 top=5' (default: list every record)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: calreport [flags] [report.json]\n")
		flag.PrintDefaults()
	}
	shared := cliflags.RegisterOps("calreport")
	flag.Parse()

	if *storeDir != "" {
		if err := runQuery(*storeDir, *queryExpr, *out); err != nil {
			shared.Logger().Error("querying run store", "err", err)
			return 2
		}
		return 0
	}
	if *queryExpr != "" {
		shared.Logger().Error("-query needs -store", "query", *queryExpr)
		return 2
	}

	doc, err := load(flag.Args(), *metricsPath, *tracePath, *tool)
	if err != nil {
		shared.Logger().Error("loading report", "err", err)
		return 2
	}
	if err := shared.Start(); err != nil {
		shared.Logger().Error("startup failed", "err", err)
		return 2
	}
	defer shared.Close()
	if err := emit(doc, *out); err != nil {
		shared.Logger().Error("writing output", "err", err)
		return 2
	}
	if ops := shared.Ops(); ops != nil {
		// Replay the saved run on the live endpoint: the document on
		// /runsz, its metrics snapshot already backing /metrics would need
		// a live registry — instead surface the headline facts as notes.
		ops.AddReport(doc)
		if m := shared.Metrics(); m != nil && doc.Metrics != nil {
			importSnapshot(m, doc.Metrics)
		}
		shared.Live().SetPhase("done")
		if shared.LingerDuration() <= 0 {
			shared.Logger().Warn("ops server exits with the process; set -serve-linger to keep it up")
		}
	}
	return 0
}

// runQuery answers a -query expression over the run-history store in
// dir: the result goes to stdout as an aligned table, to a .json path
// as the calgo.query/v1 document, or to any other path as Markdown.
func runQuery(dir, expr, out string) error {
	st, err := calgo.OpenFSStore(dir, calgo.FSStoreOptions{})
	if err != nil {
		return err
	}
	defer st.Close()
	// Committed BENCH_*.json files beside the store are ingested on
	// first sight (idempotent), so a directory of trajectory files is
	// queryable with no prior bookkeeping run.
	if _, err := calgo.IngestBenchFiles(st, dir, nil); err != nil {
		return err
	}
	q, err := calgo.ParseRunQuery(expr, time.Now())
	if err != nil {
		return err
	}
	res, err := calgo.RunQueryOnContext(context.Background(), st, q)
	if err != nil {
		return err
	}
	switch {
	case out == "-":
		_, err := os.Stdout.WriteString(res.Text())
		return err
	case strings.HasSuffix(out, ".json"):
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(out, append(b, '\n'), 0o644)
	default:
		return os.WriteFile(out, []byte(res.Markdown()), 0o644)
	}
}

// importSnapshot replays a saved metrics snapshot into a live registry,
// so /metrics serves the saved run's counters and gauges. Histograms
// are replayed as count observations preserving the exact sum (the
// registry re-buckets, so bucket shapes are approximate) — but only up
// to a bound, since a saved run may hold millions of observations.
func importSnapshot(m *calgo.Metrics, s *calgo.MetricsSnapshot) {
	const maxReplay = 1 << 16
	for name, v := range s.Counters {
		m.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		m.Gauge(name).Set(v)
	}
	for name, h := range s.Histograms {
		if h.Count <= 0 || h.Count > maxReplay {
			continue
		}
		hist := m.Histogram(name)
		avg := h.Sum / h.Count
		for i := int64(0); i < h.Count-1; i++ {
			hist.Observe(avg)
		}
		hist.Observe(h.Sum - avg*(h.Count-1))
	}
}

// load produces the report to render: either a saved calgo.report/v1
// document (one positional argument) or one assembled from a saved
// metrics/flight pair (-metrics / -trace).
func load(args []string, metricsPath, tracePath, tool string) (*calgo.Report, error) {
	switch {
	case len(args) > 1:
		return nil, fmt.Errorf("at most one report file, got %d", len(args))
	case len(args) == 1 && (metricsPath != "" || tracePath != ""):
		return nil, fmt.Errorf("give either a report file or -metrics/-trace, not both")
	case len(args) == 1:
		return loadReport(args[0])
	case metricsPath == "" && tracePath == "":
		return nil, fmt.Errorf("nothing to render: give a report file or -metrics/-trace (see -h)")
	}
	return assemble(metricsPath, tracePath, tool)
}

// loadReport reads and validates a saved calgo.report/v1 document.
func loadReport(path string) (*calgo.Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc calgo.Report
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != calgo.ReportSchemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, calgo.ReportSchemaVersion)
	}
	return &doc, nil
}

// assemble builds a fresh report from a saved -metrics-json document
// and/or a -trace JSON-lines file.
func assemble(metricsPath, tracePath, tool string) (*calgo.Report, error) {
	if tool == "" {
		tool = "calreport"
	}
	var sources []string
	var doc *calgo.Report

	if metricsPath != "" {
		b, err := os.ReadFile(metricsPath)
		if err != nil {
			return nil, err
		}
		var m cliflags.Report
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", metricsPath, err)
		}
		if m.Tool != "" && tool == "calreport" {
			tool = m.Tool
		}
		doc = calgo.NewReport(tool, time.Now())
		doc.ElapsedNS = m.ElapsedNS
		snap := m.Metrics
		doc.Metrics = &snap
		sources = append(sources, fmt.Sprintf("metrics from %s", metricsPath))
	} else {
		doc = calgo.NewReport(tool, time.Now())
	}

	if tracePath != "" {
		events, total, err := loadTrace(tracePath)
		if err != nil {
			return nil, err
		}
		doc.Flight = events
		doc.FlightTotal = total
		sources = append(sources, fmt.Sprintf("%d trace events from %s", total, tracePath))
	}

	doc.Notes = append(doc.Notes, "assembled offline by calreport: "+strings.Join(sources, ", "))
	return doc, nil
}

// loadTrace parses a -trace JSON-lines file, keeping the last
// cliflags.FlightEvents events — the same tail a live flight recorder
// would retain.
func loadTrace(path string) ([]calgo.TraceEvent, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()

	var events []calgo.TraceEvent
	var total uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var ev calgo.TraceEvent
		if err := json.Unmarshal([]byte(text), &ev); err != nil {
			return nil, 0, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		total++
		events = append(events, ev)
		if len(events) > cliflags.FlightEvents {
			events = events[1:]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return events, total, nil
}

// emit writes the report to out: "-" renders Markdown on stdout, a
// .json path re-emits the JSON document, anything else gets Markdown.
func emit(doc *calgo.Report, out string) error {
	if out == "-" {
		_, err := os.Stdout.WriteString(doc.Markdown())
		return err
	}
	if strings.HasSuffix(out, ".json") {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := doc.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return os.WriteFile(out, []byte(doc.Markdown()), 0o644)
}
