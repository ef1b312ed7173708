// Command cald is the calgo checking-as-a-service daemon: a
// long-running process that accepts histories over HTTP and serves
// three-valued CAL/linearizability verdicts, hardened for production
// traffic.
//
// Usage:
//
//	cald -addr 127.0.0.1:8419 -journal cald.journal
//	calcheck -remote http://127.0.0.1:8419 -spec exchanger history.txt
//
// The job and stream APIs ride on the same ops mux every calgo CLI
// serves:
//
//	POST /jobs                submit a history + spec selection -> job id
//	GET  /jobs/{id}           poll a verdict (?wait=10s long-polls until
//	                          it is decided, at most 30s; ?watch=1
//	                          streams via SSE)
//	GET  /jobs                list jobs
//	POST /jobs/{id}/cancel    cancel a pending or running job
//	POST /streams             open an online checking stream
//	POST /streams/{id}/events feed a batch; response = verdict frame
//	GET  /streams/{id}        poll the frame (?watch=1 streams via SSE)
//	POST /streams/{id}/close  run end-of-stream checks; final frame
//	/metrics /statusz /flightz /runsz /queryz /debug/pprof/   the ops surface
//
// Robustness properties (see EXPERIMENTS.md "Checking as a service"):
// bounded queue with 429 + Retry-After load shedding; per-client
// token-bucket rate limiting; a verdict cache keyed by the
// canonicalized-history fingerprint so replayed traffic never re-pays
// the search; per-job deadlines and budgets clamped by the -max-*
// server limits (exhaustion surfaces as UNKNOWN, never a hung request);
// and a crash-safe append-only journal — SIGTERM drains running jobs,
// pending ones persist, and a restarted daemon resumes them.
//
// Memory stays bounded under steady traffic. A job echoes its history
// only while pending (the journal keeps the copy a restart resumes),
// a closed stream keeps its final frame but not its checker, and the
// job and stream tables each keep the 1,024 entries that ended last;
// an older ID answers 404. Each executed job and each closed stream is
// published once, as a calgo.run/v1 record on /runsz (a bounded ring,
// or the -store directory). The collector runs at GOGC=400 unless the
// GOGC environment variable is set.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"calgo"
	"calgo/internal/cliflags"
	"calgo/internal/jobs"
	"calgo/internal/obs"
	"calgo/internal/obs/serve"
	"calgo/internal/render"
	"calgo/internal/runstore"
)

// runRecord is the calgo.run/v1 record cald publishes on /runsz for one
// ended job or stream, labelled with the vocabulary pinned in
// EXPERIMENTS.md "Run-history store"; empty label values are omitted so
// label selectors stay exact-match.
func runRecord(id, verdict, detail, spec, mode, engine, object, client string) *runstore.Record {
	doc := render.NewReport("cald", time.Now())
	doc.Runs = []render.Run{{Name: id, Verdict: verdict, Detail: detail}}
	labels := make(map[string]string, 5)
	for k, v := range map[string]string{
		"spec": spec, "mode": mode, "engine": engine, "object": object, "client": client,
	} {
		if v != "" {
			labels[k] = v
		}
	}
	return &runstore.Record{Report: doc, Labels: labels}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", "127.0.0.1:8419", "listen address for the job API + ops endpoint (\":0\" picks a port)")
		workers      = flag.Int("workers", 0, "checker worker goroutines (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 64, "pending-job queue bound; a full queue sheds submissions with 429 + Retry-After")
		rate         = flag.Float64("rate", 0, "per-client sustained admission rate in jobs/second (0 = unlimited)")
		burst        = flag.Int("burst", 8, "per-client token-bucket burst")
		cacheEntries = flag.Int("cache-entries", 1024, "verdict-cache capacity (identical histories answered without re-searching; negative disables)")
		journalPath  = flag.String("journal", "", "crash-safe job journal path; pending jobs are resumed on restart (\"\" = volatile)")
		storeDir     = flag.String("store", "", "durable run-history store directory; every completed job and stream verdict is persisted and served across restarts on /runsz and /queryz (\"\" = bounded in-memory ring)")
		retMaxAge    = flag.Duration("retention-max-age", 0, "expire run records older than this (0 = unbounded); applied crash-safely every -retention-interval")
		retMaxRecs   = flag.Int("retention-max-records", 0, "keep only the newest N run records overall (0 = unbounded)")
		retKeepBench = flag.Int("retention-keep-bench", 0, "keep only the newest N bench records (0 = unbounded)")
		retKeepRep   = flag.Int("retention-keep-report", 0, "keep only the newest N report records (0 = unbounded)")
		retInterval  = flag.Duration("retention-interval", time.Minute, "how often the retention policy sweeps the run-history store")
		maxBytes     = flag.Int("max-history-bytes", 1<<20, "reject history uploads larger than this before parsing")
		maxEvents    = flag.Int("max-history-events", 1<<16, "reject histories with more events than this")
		maxTimeout   = flag.Duration("max-timeout", 30*time.Second, "clamp (and default) for per-job wall-clock deadlines")
		maxStates    = flag.Int("max-states", 4_000_000, "clamp (and default) for per-job state budgets")
		memoBudget   = flag.Int("memo-budget", 0, "clamp for per-job memoization budgets in bytes (0 = unlimited)")
		maxStreams   = flag.Int("max-streams", 16, "bound on concurrently open checking streams; at the bound opens are shed with 429 + Retry-After")
		streamWindow = flag.Int("stream-window", calgo.DefaultStreamWindow, "per-stream fallback re-check window (and server-wide clamp) in events")
		streamCheck  = flag.Int("stream-check-every", calgo.DefaultStreamCheckEvery, "per-stream fallback re-check cadence (and server-wide clamp) in events")
		streamIdle   = flag.Duration("stream-idle", 5*time.Minute, "close streams with no events for this long (negative disables)")
		drainWait    = flag.Duration("drain", 30*time.Second, "how long SIGTERM waits for running jobs before interrupting them")
		logLevel     = flag.String("log-level", "info", "diagnostic log level: debug, info, warn or error")
		logFormat    = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: cald [flags]\n")
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), cliflags.ExitLegend)
	}
	flag.Parse()

	// Ended jobs and streams keep only their documents, so the live heap
	// stays a few MB while each job allocates its parsed history and
	// search state. At the default GOGC of 100 the collector then runs
	// tens of times a second under load, and its mark phases show in
	// request latency; collecting at 5x the live heap spends part of the
	// memory the documents no longer hold on fewer cycles. An explicit
	// GOGC still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	logger, err := cliflags.NewLogger("cald", *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cald: %v\n", err)
		return 2
	}

	metrics := obs.NewMetrics()
	if err := metrics.PublishExpvar("calgo"); err != nil {
		logger.Debug("expvar publication skipped", "err", err)
	}
	live := obs.NewLiveRun("cald")
	flight := obs.NewFlightRecorder(cliflags.FlightEvents)
	var store runstore.Store
	if *storeDir != "" {
		fs, err := runstore.OpenFS(*storeDir, runstore.FSOptions{Metrics: metrics, Logger: logger})
		if err != nil {
			logger.Error("opening run-history store", "dir", *storeDir, "err", err)
			return 2
		}
		defer fs.Close()
		store = fs
		logger.Info("run-history store open", "dir", *storeDir, "records", fs.Len())
	}
	ops := serve.New(serve.Config{Tool: "cald", Metrics: metrics, Flight: flight, Live: live,
		Store: store})

	mgr, err := jobs.New(jobs.Config{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		Rate:             *rate,
		Burst:            *burst,
		CacheEntries:     *cacheEntries,
		JournalPath:      *journalPath,
		MaxHistoryBytes:  *maxBytes,
		MaxHistoryEvents: *maxEvents,
		MaxTimeout:       *maxTimeout,
		MaxStates:        *maxStates,
		MemoBudget:       *memoBudget,
		Metrics:          metrics,
		Logger:           logger,
		OnDone: func(j jobs.Job) {
			// Every *executed* search lands on /runsz — cache hits
			// deliberately do not, which is how the CI smoke proves a
			// replayed submission re-paid nothing.
			ops.AddRecord(runRecord(j.ID, j.Verdict, j.Detail, j.Request.Spec, j.Request.Mode,
				j.Request.Engine, j.Request.Object, j.Client))
		},
	})
	if err != nil {
		logger.Error("starting job manager", "err", err)
		return 2
	}

	sm := jobs.NewStreamManager(jobs.StreamConfig{
		MaxStreams:     *maxStreams,
		Rate:           *rate,
		Burst:          *burst,
		MaxBatchBytes:  *maxBytes,
		MaxBatchEvents: *maxEvents,
		Window:         *streamWindow,
		CheckEvery:     *streamCheck,
		IdleTimeout:    *streamIdle,
		Metrics:        metrics,
		Logger:         logger,
		OnClose: func(d jobs.StreamDoc) {
			ops.AddRecord(runRecord(d.ID, d.Verdict.Status.String(), d.Verdict.String(),
				d.Request.Spec, "stream", d.Verdict.Engine, d.Request.Object, d.Client))
		},
	})

	ops.Mount("/jobs", mgr.Handler())
	ops.Mount("/jobs/", mgr.Handler())
	ops.Mount("/streams", sm.Handler())
	ops.Mount("/streams/", sm.Handler())
	bound, err := ops.Start(*addr)
	if err != nil {
		logger.Error("starting server", "err", err)
		return 2
	}
	samplerStop := obs.StartRuntimeSampler(metrics, cliflags.RuntimeSampleInterval)
	defer samplerStop()
	live.SetPhase("serving")
	logger.Info("cald serving",
		"url", fmt.Sprintf("http://%s/", bound),
		"endpoints", "/jobs /streams /metrics /statusz /flightz /runsz /queryz /debug/pprof/")

	ctx, stop := cliflags.SignalContext()
	defer stop()

	// Retention: sweep the run-history store on a timer. Tombstones are
	// fsynced before records drop from view, so a SIGKILL mid-sweep
	// never resurrects expired history; the runstore.expired counter
	// (calgo_runstore_expired_total) and runstore.retained gauge track
	// the policy's effect on /metrics.
	policy := runstore.Retention{MaxAge: *retMaxAge, MaxRecords: *retMaxRecs}
	if *retKeepBench > 0 || *retKeepRep > 0 {
		policy.KeepPerKind = map[string]int{}
		if *retKeepBench > 0 {
			policy.KeepPerKind[runstore.KindBench] = *retKeepBench
		}
		if *retKeepRep > 0 {
			policy.KeepPerKind[runstore.KindReport] = *retKeepRep
		}
	}
	if !policy.Empty() {
		ret, ok := ops.Store().(runstore.Retainer)
		if !ok {
			logger.Error("run-history store cannot apply a retention policy", "policy", policy.String())
			return 2
		}
		logger.Info("retention policy active", "policy", policy.String(), "every", *retInterval)
		go func() {
			tick := time.NewTicker(*retInterval)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if n, err := ret.Retain(policy); err != nil {
						logger.Warn("retention sweep failed", "err", err)
					} else if n > 0 {
						logger.Info("retention sweep", "expired", n)
					}
				}
			}
		}()
	}

	<-ctx.Done()
	stop() // a second signal now kills the process with default disposition

	// Graceful shutdown: refuse new work, let running jobs finish (up to
	// -drain), keep pending ones journaled for the next instance, then
	// drain the HTTP side (SSE watchers get their final frame).
	live.SetPhase("draining")
	logger.Info("signal received; draining", "wait", *drainWait)
	sm.Drain() // streams finalize immediately: verdicts are incremental
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	left := mgr.Drain(drainCtx)
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), cliflags.OpsShutdownTimeout)
	defer cancelHTTP()
	_ = ops.Shutdown(httpCtx)
	if left > 0 {
		logger.Info("drained with pending jobs journaled", "pending", left, "journal", *journalPath)
	} else {
		logger.Info("drained clean")
	}
	return 0
}
