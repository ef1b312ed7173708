// Package cliflags defines the flags, observability wiring and exit-code
// conventions shared by the calgo CLIs (calcheck, calexplore, calfuzz,
// calbench, calreport), so the tools stay uniform: the same flag names
// mean the same thing everywhere, every tool documents the exit-code
// legend in its -h output, and -metrics-json/-trace/-progress/-serve/
// -log-level/-log-format behave identically.
//
// Usage, in a tool's main:
//
//	s := cliflags.Register("calcheck")
//	flag.Parse()
//	if err := s.Start(); err != nil { ... exit 2 ... }
//	defer s.Close()
//	ctx, cancel := s.WithTimeout(ctx)
//	defer cancel()
//	results, err := calgo.CheckMany(ctx, hs, sp, s.Options()...)
//	...
//	s.DumpFlight()            // on VIOLATION or UNKNOWN
//	if err := s.Finish(exit); err != nil { ... exit 2 ... }
package cliflags

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"calgo"
)

// SignalContext returns a context cancelled by SIGINT or SIGTERM — the
// shared interrupt wiring of every calgo CLI, so a Ctrl-C or an
// orchestrator's TERM turns into cooperative cancellation (and a flushed
// -metrics-json/-report) instead of lost output. The returned stop
// function releases the signal registration; a second signal after
// cancellation kills the process with the default disposition.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ExitLegend is the exit-code convention shared by every calgo CLI; it
// is appended to each tool's -h output.
const ExitLegend = `
Exit status:
  0  OK: the property was verified / all runs passed
  1  VIOLATION: a history or execution failed its check
  2  usage or input error
  3  UNKNOWN: interrupted, cancelled, or out of budget before a verdict
     (a resource-bounded "don't know", not a failure)
`

// TraceSample is the 1-in-N sampling rate of -trace's JSON-lines output
// for high-frequency events (NodeExpand, MemoHit, ElementAdmit,
// Backtrack); SearchStart and SearchEnd are always written.
const TraceSample = 64

// FlightEvents is the ring capacity of the flight recorder attached by
// -trace; the last FlightEvents events are dumped on VIOLATION/UNKNOWN.
const FlightEvents = 4096

// RuntimeSampleInterval is how often the -serve runtime sampler records
// goroutine count, heap gauges and GC pauses into the registry.
const RuntimeSampleInterval = 5 * time.Second

// Set is the shared flag set of one tool, created by Register. After
// flag.Parse and Start, it hands out the facade options implementing
// the observability flags.
type Set struct {
	tool string

	workers     *int
	timeout     *time.Duration
	metricsJSON *string
	tracePath   *string
	progress    *bool
	explain     *bool
	dotPath     *string
	reportPath  *string
	engineName  *string
	serveAddr   *string
	serveLinger *time.Duration
	logLevel    *string
	logFormat   *string

	streamWindow     *int // nil unless RegisterStream was called
	streamCheckEvery *int

	start     time.Time
	metrics   *calgo.Metrics
	flight    *calgo.FlightRecorder
	logTracer *calgo.LogTracer
	traceFile *os.File // nil when tracing to stderr or disabled

	engine calgo.Engine // parsed -engine, valid after Start

	live        *calgo.LiveRun
	ops         *calgo.OpsServer
	samplerStop func() // runtime sampler shutdown; nil when not running
	logger      *slog.Logger

	runs  []calgo.RunReport // accumulated for -report
	notes []string
}

// Register defines the shared flags on the default flag set and wraps
// flag.Usage to append the exit-code legend. Call before flag.Parse.
func Register(tool string) *Set {
	s := &Set{
		tool:        tool,
		workers:     flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)"),
		timeout:     flag.Duration("timeout", 0, "wall-clock deadline for the run (0 = none), e.g. 100ms, 30s; exceeding it exits 3 (UNKNOWN)"),
		metricsJSON: flag.String("metrics-json", "", "write the metrics registry as JSON to this path when done (\"-\" = stdout)"),
		tracePath:   flag.String("trace", "", "write sampled search-trace JSON lines to this path (\"-\" = stderr) and dump a flight-recorder ring on VIOLATION/UNKNOWN"),
		progress:    flag.Bool("progress", false, "report live progress (states, states/sec, budget ETA) to stderr every second"),
		explain:     flag.Bool("explain", false, "render the evidence behind each verdict: a per-thread timeline with concurrency windows and, on VIOLATION, the first blocked operation"),
		dotPath:     flag.String("dot", "", "write a Graphviz DOT rendering of the worst verdict's evidence to this path (\"-\" = stdout)"),
		reportPath:  flag.String("report", "", "write a self-contained calgo.report/v1 run report to this path (\"-\" = stdout as JSON; a .md path renders Markdown)"),
		engineName:  flag.String("engine", "auto", "checker engine: auto (route unambiguous collection histories to the O(n log n) specialized monitors, DFS otherwise), dfs (always run the memoized search), monitor (force the fast path; histories it cannot decide exit 3 UNKNOWN)"),
	}
	s.registerOps()
	wrapUsage()
	return s
}

// RegisterOps defines only the ops-endpoint and logging flags (-serve,
// -serve-linger, -log-level, -log-format) — for tools like calreport
// that have their own flag vocabulary but still want the shared ops
// surface. The other accessors behave as if their flags were left at
// their defaults.
func RegisterOps(tool string) *Set {
	s := &Set{
		tool:        tool,
		workers:     new(int),
		timeout:     new(time.Duration),
		metricsJSON: new(string),
		tracePath:   new(string),
		progress:    new(bool),
		explain:     new(bool),
		dotPath:     new(string),
		reportPath:  new(string),
		engineName:  new(string),
	}
	*s.engineName = "auto"
	s.registerOps()
	wrapUsage()
	return s
}

// registerOps defines the ops-endpoint and logging flags shared by
// Register and RegisterOps.
func (s *Set) registerOps() {
	s.serveAddr = flag.String("serve", "", "serve the embedded ops endpoint on this address (e.g. localhost:8080; \":0\" picks a port): /metrics (Prometheus), /statusz (live status; ?watch=1 streams), /flightz, /runsz, /debug/pprof/, /debug/vars")
	s.serveLinger = flag.Duration("serve-linger", 0, "keep the -serve ops server up this long after the run finishes, so late scrapes and watchers see the final state")
	s.logLevel = flag.String("log-level", "info", "diagnostic log level: debug, info, warn or error")
	s.logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
}

// wrapUsage appends the exit-code legend to the tool's -h output.
func wrapUsage() {
	prev := flag.Usage
	flag.Usage = func() {
		if prev != nil {
			prev()
		}
		fmt.Fprint(flag.CommandLine.Output(), ExitLegend)
	}
}

// RegisterStream defines the streaming-checker flags — -stream-window
// and -stream-check-every — for tools with an online checking mode
// (calfuzz -soak-stream). Call between Register and flag.Parse.
// StreamOptions hands out the matching facade options.
func (s *Set) RegisterStream() {
	s.streamWindow = flag.Int("stream-window", calgo.DefaultStreamWindow, "events buffered per object for fallback re-checking; streams that outgrow the window degrade honestly instead of weakening verdicts")
	s.streamCheckEvery = flag.Int("stream-check-every", calgo.DefaultStreamCheckEvery, "fallback re-check cadence in buffered events (and replay-stepper operations)")
}

// StreamOptions returns the facade options implementing the
// RegisterStream flags, append-compatible with Options(). It panics if
// RegisterStream was not called.
func (s *Set) StreamOptions() []calgo.Option {
	return []calgo.Option{
		calgo.WithStreamWindow(*s.streamWindow),
		calgo.WithStreamCheckEvery(*s.streamCheckEvery),
	}
}

// Workers returns the -workers value (0 = GOMAXPROCS).
func (s *Set) Workers() int { return *s.workers }

// Engine returns the parsed -engine selection. Valid after Start. It is
// not folded into Options() because the explorer has no engine notion;
// checker CLIs append calgo.WithEngine(s.Engine()) themselves.
func (s *Set) Engine() calgo.Engine { return s.engine }

// Explain returns whether -explain was given.
func (s *Set) Explain() bool { return *s.explain }

// DOTPath returns the -dot destination ("" = off, "-" = stdout).
func (s *Set) DOTPath() string { return *s.dotPath }

// ReportPath returns the -report destination ("" = off, "-" = stdout).
func (s *Set) ReportPath() string { return *s.reportPath }

// WantsRuns reports whether per-run summaries have a consumer — a
// -report document under construction or a live -serve endpoint — so
// CLIs can skip assembling them otherwise. Valid after Start.
func (s *Set) WantsRuns() bool { return *s.reportPath != "" || s.ops != nil }

// Timeout returns the -timeout value (0 = none).
func (s *Set) Timeout() time.Duration { return *s.timeout }

// LingerDuration returns the -serve-linger value (0 = none).
func (s *Set) LingerDuration() time.Duration { return *s.serveLinger }

// WithTimeout derives the run's context from parent, applying -timeout
// when set. The CancelFunc must be called to release the timer.
func (s *Set) WithTimeout(parent context.Context) (context.Context, context.CancelFunc) {
	if *s.timeout <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, *s.timeout)
}

// Logger returns the tool's diagnostic logger, configured by
// -log-level and -log-format. It works before Start too (for
// usage-error diagnostics), falling back to a text handler at the
// default level when the flag values are invalid, so call sites never
// need a nil check.
func (s *Set) Logger() *slog.Logger {
	if s.logger == nil {
		if err := s.buildLogger(); err != nil {
			s.logger = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("tool", s.tool)
		}
	}
	return s.logger
}

// buildLogger materializes -log-level/-log-format into s.logger.
func (s *Set) buildLogger() error {
	logger, err := NewLogger(s.tool, *s.logLevel, *s.logFormat)
	if err != nil {
		return err
	}
	s.logger = logger
	return nil
}

// NewLogger builds the shared structured diagnostic logger from the
// -log-level/-log-format vocabulary — for daemons like cald that manage
// their own flag set but must log exactly like the other tools.
func NewLogger(tool, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	hopts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, hopts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, hopts)
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
	return slog.New(h).With("tool", tool), nil
}

// Start materializes the observability flags: builds the logger, opens
// the trace sink, creates the metrics registry, starts the ops server.
// Errors are usage/environment errors (exit 2). Call after flag.Parse
// and pair with Close.
func (s *Set) Start() error {
	s.start = time.Now()
	if err := s.buildLogger(); err != nil {
		return err
	}
	eng, err := calgo.ParseEngine(*s.engineName)
	if err != nil {
		return fmt.Errorf("bad -engine: %w", err)
	}
	s.engine = eng
	if *s.metricsJSON != "" || *s.reportPath != "" {
		// A report always embeds a metrics snapshot, so -report implies a
		// registry even without -metrics-json.
		s.metrics = calgo.NewMetrics()
	}
	if *s.tracePath != "" {
		w := os.Stderr
		if *s.tracePath != "-" {
			f, err := os.Create(*s.tracePath)
			if err != nil {
				return fmt.Errorf("opening trace sink: %w", err)
			}
			s.traceFile, w = f, f
		}
		s.logTracer = calgo.NewLogTracer(w, TraceSample)
	}
	if *s.tracePath != "" || *s.reportPath != "" {
		// The report's flight-recorder tail needs a ring even when no
		// trace sink was requested.
		s.flight = calgo.NewFlightRecorder(FlightEvents)
	}
	if *s.serveAddr != "" {
		if s.metrics == nil {
			// /metrics and /statusz read the registry, so -serve implies one
			// even without -metrics-json.
			s.metrics = calgo.NewMetrics()
		}
		if s.flight == nil {
			// /flightz serves the ring, so -serve implies one too.
			s.flight = calgo.NewFlightRecorder(FlightEvents)
		}
		if err := s.metrics.PublishExpvar("calgo"); err != nil {
			// Another registry from this process already owns the expvar
			// (re-Register in tests); the ops endpoints don't depend on it.
			s.Logger().Debug("expvar publication skipped", "err", err)
		}
		s.live = calgo.NewLiveRun(s.tool)
		s.ops = calgo.NewOpsServer(calgo.OpsConfig{
			Tool:    s.tool,
			Metrics: s.metrics,
			Flight:  s.flight,
			Live:    s.live,
		})
		addr, err := s.ops.Start(*s.serveAddr)
		if err != nil {
			return fmt.Errorf("starting ops server: %w", err)
		}
		s.samplerStop = calgo.StartRuntimeSampler(s.metrics, RuntimeSampleInterval)
		s.Logger().Info("ops server listening",
			"url", fmt.Sprintf("http://%s/", addr),
			"endpoints", "/metrics /statusz /flightz /runsz /debug/pprof/")
	}
	return nil
}

// Options returns the facade options implementing the observability and
// pool flags: WithParallelism from -workers, WithTracer from -trace,
// WithMetrics from -metrics-json, WithProgress from -progress. The
// slice is append-compatible with tool-specific options.
func (s *Set) Options() []calgo.Option {
	opts := []calgo.Option{calgo.WithParallelism(*s.workers)}
	var tracers []calgo.Tracer
	if s.logTracer != nil {
		tracers = append(tracers, s.logTracer)
	}
	if s.flight != nil {
		tracers = append(tracers, s.flight)
	}
	if len(tracers) > 0 {
		// MultiTracer unwraps a single live tracer.
		opts = append(opts, calgo.WithTracer(calgo.MultiTracer(tracers...)))
	}
	if s.metrics != nil {
		opts = append(opts, calgo.WithMetrics(s.metrics))
	}
	if *s.progress {
		opts = append(opts, calgo.WithProgress(time.Second, calgo.ProgressPrinter(os.Stderr, s.tool)))
	}
	if s.live != nil {
		opts = append(opts, calgo.WithLive(s.live))
	}
	return opts
}

// Live returns the live run view backing -serve's /statusz, or nil when
// the flag is off; tools may set custom phases on it between searches.
func (s *Set) Live() *calgo.LiveRun { return s.live }

// Ops returns the running -serve ops server, or nil when the flag is
// off; tools may push extra notes or reports into it.
func (s *Set) Ops() *calgo.OpsServer { return s.ops }

// Metrics returns the registry backing -metrics-json, or nil when the
// flag is off; tools may record their own gauges into it.
func (s *Set) Metrics() *calgo.Metrics { return s.metrics }

// DumpFlight writes the flight recorder's retained events to stderr,
// followed by the counterexample schedule when the caller has one. Call
// it when the run ends in VIOLATION or UNKNOWN; it is a no-op when none
// of -trace, -report or -serve is on or nothing was recorded.
func (s *Set) DumpFlight(schedule ...calgo.ExploreStep) {
	if s.flight == nil || s.flight.Total() == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: flight recorder (-trace) ring:\n", s.tool)
	_ = s.flight.Dump(os.Stderr)
	if len(schedule) > 0 {
		fmt.Fprintf(os.Stderr, "%s: schedule to the violating state:\n", s.tool)
		for i, step := range schedule {
			fmt.Fprintf(os.Stderr, "  %3d  %s\n", i, step)
		}
	}
}

// AddRun records one checked input's outcome for the -report document
// and the -serve /statusz run list. Tools should gate the expensive
// fields (Timeline, DOT) on ReportPath() being set; the record itself
// is cheap.
func (s *Set) AddRun(r calgo.RunReport) {
	s.runs = append(s.runs, r)
	s.ops.AddRun(r)
}

// AddNote appends a free-form line to the -report document's notes and
// the -serve /statusz note list.
func (s *Set) AddNote(format string, args ...any) {
	note := fmt.Sprintf(format, args...)
	s.notes = append(s.notes, note)
	s.ops.AddNote(note)
}

// WriteDOT writes a DOT document to the -dot destination; a no-op when
// the flag is off. Call at most once per process, with the rendering of
// the run's worst verdict.
func (s *Set) WriteDOT(dot string) error {
	if *s.dotPath == "" {
		return nil
	}
	if *s.dotPath == "-" {
		_, err := os.Stdout.WriteString(dot)
		return err
	}
	if err := os.WriteFile(*s.dotPath, []byte(dot), 0o644); err != nil {
		return fmt.Errorf("writing DOT: %w", err)
	}
	return nil
}

// Report is the -metrics-json document: the tool name, wall-clock
// elapsed time, and the metrics registry snapshot (schema
// calgo.MetricsSchemaVersion).
type Report struct {
	Tool      string                `json:"tool"`
	ElapsedNS int64                 `json:"elapsed_ns"`
	Metrics   calgo.MetricsSnapshot `json:"metrics"`
}

// Finish flushes the end-of-run outputs: snapshots runtime memory
// gauges, writes the -metrics-json document and the -report document
// (stamped with the process exit code the caller is about to use), and
// surfaces any -trace write error. Errors are environment errors
// (exit 2).
func (s *Set) Finish(exit int) error {
	if s.logTracer != nil {
		if err := s.logTracer.Err(); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if s.metrics != nil {
		s.metrics.SnapshotMemStats()
	}
	if s.metrics != nil && *s.metricsJSON != "" {
		doc := Report{
			Tool:      s.tool,
			ElapsedNS: time.Since(s.start).Nanoseconds(),
			Metrics:   s.metrics.Snapshot(),
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if *s.metricsJSON == "-" {
			if _, err := os.Stdout.Write(b); err != nil {
				return err
			}
		} else if err := os.WriteFile(*s.metricsJSON, b, 0o644); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if s.ops != nil {
		// Freeze the live view and publish the finished run on /runsz so a
		// lingering server (or one kept up by a still-running process)
		// serves the final state.
		s.live.SetPhase("done")
		s.ops.AddReport(s.buildReport(exit))
	}
	return s.writeReport(exit)
}

// buildReport assembles the calgo.report/v1 document for this run.
func (s *Set) buildReport(exit int) *calgo.Report {
	doc := calgo.NewReport(s.tool, time.Now())
	doc.ElapsedNS = time.Since(s.start).Nanoseconds()
	doc.Exit = exit
	doc.Runs = s.runs
	doc.Notes = s.notes
	if s.metrics != nil {
		snap := s.metrics.Snapshot()
		doc.Metrics = &snap
	}
	if s.flight != nil && s.flight.Total() > 0 {
		doc.Flight = s.flight.Events()
		doc.FlightTotal = s.flight.Total()
	}
	return doc
}

// writeReport writes the calgo.report/v1 document to -report's path.
func (s *Set) writeReport(exit int) error {
	if *s.reportPath == "" {
		return nil
	}
	doc := s.buildReport(exit)
	if *s.reportPath == "-" {
		return doc.WriteJSON(os.Stdout)
	}
	if strings.HasSuffix(*s.reportPath, ".md") {
		if err := os.WriteFile(*s.reportPath, []byte(doc.Markdown()), 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		return nil
	}
	f, err := os.Create(*s.reportPath)
	if err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	if err := doc.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing report: %w", err)
	}
	return f.Close()
}

// OpsShutdownTimeout bounds how long Close waits for the ops server's
// graceful stop: in-flight scrapes finish and SSE watchers get their
// final frame, but a stuck client can't wedge process exit.
const OpsShutdownTimeout = 2 * time.Second

// Close honours -serve-linger (interruptibly: SIGINT/SIGTERM cuts the
// linger short), gracefully shuts down the ops server and runtime
// sampler, and releases the trace sink. Safe to call once, after
// Finish.
func (s *Set) Close() {
	if s.ops != nil && *s.serveLinger > 0 {
		s.Logger().Info("ops server lingering", "addr", s.ops.Addr().String(), "for", *s.serveLinger)
		lingerCtx, stop := SignalContext()
		select {
		case <-time.After(*s.serveLinger):
		case <-lingerCtx.Done():
			s.Logger().Info("linger interrupted")
		}
		stop()
	}
	if s.samplerStop != nil {
		s.samplerStop()
		s.samplerStop = nil
	}
	if s.ops != nil {
		ctx, cancel := context.WithTimeout(context.Background(), OpsShutdownTimeout)
		_ = s.ops.Shutdown(ctx)
		cancel()
		s.ops = nil
	}
	if s.traceFile != nil {
		_ = s.traceFile.Close()
		s.traceFile = nil
	}
}
