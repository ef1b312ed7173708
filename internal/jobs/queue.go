package jobs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/obs"
	"calgo/internal/render"
)

// Config sizes and wires a Manager. Zero values get production-sane
// defaults (see New).
type Config struct {
	// Workers is the checker pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending queue; a full queue sheds new
	// submissions with 429 + Retry-After (default 64).
	QueueDepth int
	// Rate is the per-client sustained admission rate in jobs/second
	// (0 = unlimited); Burst is the token-bucket depth (default 8).
	Rate  float64
	Burst int
	// CacheEntries bounds the verdict cache (default 1024; negative
	// disables caching).
	CacheEntries int
	// JournalPath enables the crash-safe job journal ("" = volatile).
	JournalPath string
	// MaxHistoryBytes / MaxHistoryEvents reject oversized uploads before
	// parsing (defaults 1 MiB / 65536 events).
	MaxHistoryBytes  int
	MaxHistoryEvents int
	// MaxTimeout clamps (and defaults) the per-job wall-clock deadline
	// (default 30s).
	MaxTimeout time.Duration
	// MaxStates clamps (and defaults) the per-job state budget (default
	// 4e6). MemoBudget clamps the per-job memo budget (0 = unlimited).
	MaxStates  int
	MemoBudget int
	// Metrics receives the jobs.* counters and gauges (default: a
	// private registry).
	Metrics *obs.Metrics
	// Logger receives admission and lifecycle diagnostics (default:
	// silent).
	Logger *slog.Logger
	// OnDone, when set, observes every executed (non-cached) job as it
	// reaches a terminal state — cald publishes these on /runsz.
	OnDone func(Job)
}

// Manager owns the job table, the bounded queue and the worker pool.
// All methods are safe for concurrent use; Get, List and Watch come
// from the embedded table, whose mutex also guards nextID.
type Manager struct {
	table[Job]
	cfg     Config
	log     *slog.Logger
	limits  history.Limits
	cache   *cache
	limiter *limiter
	journal *journal
	nextID  int

	queue    chan string
	stopCtx  context.Context
	stopFn   context.CancelFunc
	wg       sync.WaitGroup
	draining atomic.Bool

	cSubmitted, cCompleted, cShed, cRateLimited *obs.Counter
	cRejected, cCanceled, cResumed              *obs.Counter
	cCacheHits, cCacheMisses                    *obs.Counter
	gQueueDepth, gRunning                       *obs.Gauge
}

// New builds a Manager, replays the journal (resuming any jobs a
// previous instance admitted but never finished) and starts the worker
// pool. Callers must Drain it before process exit.
func New(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 8
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.MaxHistoryBytes <= 0 {
		cfg.MaxHistoryBytes = 1 << 20
	}
	if cfg.MaxHistoryEvents <= 0 {
		cfg.MaxHistoryEvents = 1 << 16
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 4_000_000
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	m := &Manager{
		cfg:     cfg,
		log:     cfg.Logger,
		limits:  history.Limits{MaxBytes: cfg.MaxHistoryBytes, MaxEvents: cfg.MaxHistoryEvents},
		cache:   newCache(cfg.CacheEntries),
		limiter: newLimiter(cfg.Rate, cfg.Burst),
	}
	m.stopCtx, m.stopFn = context.WithCancel(context.Background())

	mtr := cfg.Metrics
	m.cSubmitted = mtr.Counter("jobs.submitted")
	m.cCompleted = mtr.Counter("jobs.completed")
	m.cShed = mtr.Counter("jobs.shed")
	m.cRateLimited = mtr.Counter("jobs.rate_limited")
	m.cRejected = mtr.Counter("jobs.rejected")
	m.cCanceled = mtr.Counter("jobs.canceled")
	m.cResumed = mtr.Counter("jobs.resumed")
	m.cCacheHits = mtr.Counter("jobs.cache_hits")
	m.cCacheMisses = mtr.Counter("jobs.cache_misses")
	m.gQueueDepth = mtr.Gauge("jobs.queue_depth")
	m.gRunning = mtr.Gauge("jobs.running")

	var pending []*Job
	if cfg.JournalPath != "" {
		var err error
		m.journal, pending, m.nextID, err = openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
	}
	// The queue must hold every resumed job on top of the configured
	// depth, or replay would deadlock before the workers start.
	depth := cfg.QueueDepth
	if len(pending) > depth {
		depth = len(pending)
	}
	m.queue = make(chan string, depth)

	for _, j := range pending {
		h, err := history.ParseFileLimited("journal:"+j.ID, j.Request.History, m.limits)
		if err != nil {
			// The history was admitted by a previous instance but fails
			// this one's limits or parser: close it out rather than loop.
			m.log.Warn("journaled job no longer parses; dropping", "job", j.ID, "err", err)
			_ = m.journal.cancel(j.ID)
			continue
		}
		j.Schema = Schema
		j.State = StatePending
		j.Resumed = true
		j.parsed = h
		j.cacheKey = cacheKey(h, j.Request)
		m.add(j.ID, *j)
		m.queue <- j.ID
		m.cResumed.Inc()
		m.log.Info("resuming journaled job", "job", j.ID, "spec", j.Request.Spec)
	}
	m.gQueueDepth.Set(int64(len(m.queue)))

	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Submit validates, rate-limits and admits one job. The returned Job is
// a snapshot: an already-cached verdict comes back in StateDone with
// Cached set. Errors are *RequestError (bad input, don't retry),
// *OverloadError (shed or rate-limited, retry after the hint) or
// ErrDraining.
func (m *Manager) Submit(client string, req Request) (Job, error) {
	if m.draining.Load() {
		return Job{}, ErrDraining
	}
	if ok, wait := m.limiter.allow(client, time.Now()); !ok {
		m.cRateLimited.Inc()
		return Job{}, &OverloadError{Cause: "rate limited", RetryAfter: wait}
	}

	if req.Mode == "" {
		req.Mode = "cal"
	}
	switch req.Mode {
	case "cal", "lin", "setlin":
	default:
		m.cRejected.Inc()
		return Job{}, &RequestError{fmt.Errorf("unknown mode %q (want cal, lin or setlin)", req.Mode)}
	}
	if req.Object == "" {
		req.Object = "E"
	}
	if req.Engine == "" {
		req.Engine = check.EngineDFS.String()
	}
	if _, err := check.ParseEngine(req.Engine); err != nil {
		m.cRejected.Inc()
		return Job{}, &RequestError{err}
	}
	if _, err := SpecByName(req.Spec, req.Object, req.Threads); err != nil {
		m.cRejected.Inc()
		return Job{}, &RequestError{err}
	}
	h, err := history.ParseFileLimited("history", req.History, m.limits)
	if err != nil {
		m.cRejected.Inc()
		return Job{}, &RequestError{err}
	}
	if !h.IsWellFormed() {
		m.cRejected.Inc()
		return Job{}, &RequestError{fmt.Errorf("history is not well-formed (some thread's actions do not alternate inv/res)")}
	}

	// Graceful degradation: budgets are clamped by the server-wide
	// limits, and the clamped values are what the job document records.
	req.TimeoutMS = clamp64(req.TimeoutMS, m.cfg.MaxTimeout.Milliseconds())
	req.MaxStates = clampInt(req.MaxStates, m.cfg.MaxStates)
	if m.cfg.MemoBudget > 0 {
		req.MemoBudget = clampInt(req.MemoBudget, m.cfg.MemoBudget)
	}

	now := time.Now().UnixNano()
	key := cacheKey(h, req)
	if v, ok := m.cache.get(key); ok {
		m.cCacheHits.Inc()
		req.History = "" // an ended job keeps only its document
		job := Job{
			Schema: Schema, Client: client, State: StateDone, Request: req,
			SubmittedNS: now, FinishedNS: now,
			Verdict: v.Verdict, Detail: v.Detail, States: v.States, MemoHits: v.MemoHits,
			Cached: true,
		}
		m.mu.Lock()
		m.nextID++
		job.ID = jobID(m.nextID)
		m.add(job.ID, job)
		m.mu.Unlock()
		return job, nil
	}
	m.cCacheMisses.Inc()

	m.mu.Lock()
	// Admission control: the queue length is read under the same lock
	// every submitter holds, and workers only drain it, so a reservation
	// made here cannot block on the send below.
	if len(m.queue) >= cap(m.queue) {
		m.mu.Unlock()
		m.cShed.Inc()
		return Job{}, &OverloadError{Cause: "queue full", RetryAfter: time.Second}
	}
	m.nextID++
	job := Job{
		Schema: Schema, ID: jobID(m.nextID),
		Client: client, State: StatePending, Request: req,
		SubmittedNS: now, parsed: h, cacheKey: key,
	}
	if err := m.journal.submit(&job); err != nil {
		m.mu.Unlock()
		return Job{}, err
	}
	m.add(job.ID, job)
	m.queue <- job.ID
	m.gQueueDepth.Set(int64(len(m.queue)))
	m.mu.Unlock()
	m.cSubmitted.Inc()
	return job, nil
}

// clamp64 returns v bounded to (0, max]: non-positive v inherits max.
func clamp64(v, max int64) int64 {
	if v <= 0 || v > max {
		return max
	}
	return v
}

func clampInt(v, max int) int {
	if v <= 0 || v > max {
		return max
	}
	return v
}

// Cancel requests cancellation: a pending job is finalized immediately,
// a running job's search is interrupted and finalized by its worker.
// Returns ErrNotFound for unknown ids; canceling a terminal job is a
// no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j := m.find(id)
	if j == nil {
		m.mu.Unlock()
		return ErrNotFound
	}
	switch j.State {
	case StatePending:
		j.State = StateCanceled
		j.FinishedNS = time.Now().UnixNano()
		j.parsed, j.Request.History, j.cacheKey = nil, "", ""
		err := m.journal.cancel(id)
		m.cCanceled.Inc()
		m.publish(id)
		m.mu.Unlock()
		return err
	case StateRunning:
		j.cancelRequested = true
		cancel := j.cancel
		err := m.journal.cancel(id)
		m.mu.Unlock()
		cancel()
		return err
	default:
		m.mu.Unlock()
		return nil
	}
}

// Stopping returns a channel closed when the manager begins draining,
// so long-lived HTTP streams can end promptly on shutdown.
func (m *Manager) Stopping() <-chan struct{} { return m.stopCtx.Done() }

// Draining reports whether the manager has begun shutting down.
func (m *Manager) Draining() bool { return m.draining.Load() }

// Drain shuts the manager down gracefully: new submissions are refused
// (ErrDraining), workers finish the jobs they are running now but pick
// up no more, subscribers of unfinished jobs are released, and the journal
// — still holding every admitted-but-unfinished job — is closed for the
// next instance to resume. ctx bounds the wait for in-flight jobs; on
// expiry the remaining running jobs are cancelled and Drain waits for
// the workers to acknowledge. Returns the number of jobs left pending.
func (m *Manager) Drain(ctx context.Context) int {
	m.draining.Store(true)
	m.stopFn()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: interrupt the running searches (they finalize as
		// canceled/unknown via their contexts) and wait them out.
		m.mu.Lock()
		for _, j := range m.unended() {
			if j.cancel != nil {
				j.cancel()
			}
		}
		m.mu.Unlock()
		<-done
	}

	m.mu.Lock()
	pending := m.live()
	m.release()
	m.mu.Unlock()
	if err := m.journal.close(); err != nil {
		m.log.Warn("closing journal", "err", err)
	}
	return pending
}

// worker pulls queued jobs until the manager drains.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stopCtx.Done():
			return
		case id := <-m.queue:
			m.gQueueDepth.Set(int64(len(m.queue)))
			// Drain may race the dequeue (both select cases ready):
			// once draining, never start new work — the job is still
			// journaled as pending and resumes in the next instance.
			if m.draining.Load() {
				return
			}
			m.runJob(id)
		}
	}
}

// runJob executes one queued job end to end.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	j := m.find(id)
	if j == nil || j.State != StatePending {
		// Canceled while queued: already finalized.
		m.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.StartedNS = time.Now().UnixNano()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(j.Request.TimeoutMS)*time.Millisecond)
	j.cancel = cancel
	h, req, key := j.parsed, j.Request, j.cacheKey
	// From here the job keeps only its document: the journal holds the
	// history a restart resumes.
	j.parsed, j.Request.History, j.cacheKey = nil, "", ""
	m.publish(id)
	m.mu.Unlock()
	m.gRunning.Add(1)
	defer m.gRunning.Add(-1)
	defer cancel()

	verdictWord, detail, states, memoHits, runErr := m.decide(ctx, h, req)

	m.mu.Lock()
	j.cancel = nil
	j.FinishedNS = time.Now().UnixNano()
	if j.cancelRequested {
		j.State = StateCanceled
		j.Detail = "canceled while running"
		m.cCanceled.Inc()
	} else {
		j.State = StateDone
		j.Verdict, j.Detail, j.States, j.MemoHits = verdictWord, detail, states, memoHits
		if runErr == nil && (verdictWord == "OK" || verdictWord == "VIOLATION") {
			m.cache.put(key, verdict{Verdict: verdictWord, Detail: detail, States: states, MemoHits: memoHits})
		}
	}
	if err := m.journal.done(j); err != nil {
		m.log.Warn("journaling completion", "job", id, "err", err)
	}
	m.cCompleted.Inc()
	snap := *j
	m.publish(id)
	m.mu.Unlock()
	m.log.Info("job finished", "job", id, "state", snap.State, "verdict", snap.Verdict, "states", snap.States)
	if m.cfg.OnDone != nil {
		m.cfg.OnDone(snap)
	}
}

// decide runs the checker for one job under its clamped budgets.
func (m *Manager) decide(ctx context.Context, h history.History, req Request) (word, detail string, states, memoHits int, err error) {
	sp, err := SpecByName(req.Spec, req.Object, req.Threads)
	if err != nil {
		return "ERROR", err.Error(), 0, 0, err
	}
	opts := []check.Option{
		check.WithMaxStates(req.MaxStates),
		check.WithMetrics(m.cfg.Metrics),
	}
	if req.MemoBudget > 0 {
		opts = append(opts, check.WithMemoBudget(req.MemoBudget))
	}
	if req.Mode == "lin" {
		opts = append(opts, check.WithElementCap(1))
	}
	if req.Engine != "" {
		eng, perr := check.ParseEngine(req.Engine)
		if perr != nil {
			return "ERROR", perr.Error(), 0, 0, perr
		}
		opts = append(opts, check.WithEngine(eng))
	}
	c, err := check.NewChecker(sp, opts...)
	if err != nil {
		return "ERROR", err.Error(), 0, 0, err
	}
	res, err := c.Check(ctx, h)
	if err != nil {
		return "ERROR", err.Error(), 0, 0, err
	}
	switch res.Verdict {
	case check.Sat:
		detail = fmt.Sprintf("states explored: %d (memo hits %d)", res.States, res.MemoHits)
	case check.Unsat:
		detail = res.Reason
	case check.Unknown:
		detail = fmt.Sprintf("cause: %s; frontier: %s", res.Unknown.Reason, res.Unknown.Frontier)
	}
	return render.VerdictWord(res.Verdict), detail, res.States, res.MemoHits, nil
}
