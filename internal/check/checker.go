package check

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"calgo/internal/history"
	"calgo/internal/obs"
	"calgo/internal/spec"
)

// Checker is a reusable, configured decision procedure: options are
// resolved and validated once by NewChecker, then Check runs against any
// number of histories. A Checker is immutable after construction and safe
// for concurrent use by multiple goroutines — each Check builds a private
// searcher; shared observability sinks (obs.Tracer implementations in this
// module, *obs.Metrics) are themselves concurrency-safe.
//
// CheckMany, the calfuzz batch path and the chaos soak all construct one
// Checker and fan histories across it, so "configure once, check many"
// is the single construction path for every batch consumer.
type Checker struct {
	sp        spec.Spec
	cfg       config
	maxElem   int
	resolver  spec.PendingResolver
	hElemSize *obs.Histogram // cached when metrics are attached
}

// NewChecker validates opts against sp and returns a reusable Checker.
// It fails on invalid configuration (e.g. a non-positive element cap);
// per-history problems are reported by Check.
func NewChecker(sp spec.Spec, opts ...Option) (*Checker, error) {
	cfg := config{maxStates: 4_000_000, memo: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.elementCap < 0 {
		return nil, fmt.Errorf("check: element size cap %d < 1", cfg.elementCap)
	}
	maxElem := sp.MaxElementSize()
	if cfg.elementCap > 0 && cfg.elementCap < maxElem {
		maxElem = cfg.elementCap
	}
	if maxElem < 1 {
		return nil, fmt.Errorf("check: element size cap %d < 1", maxElem)
	}
	if cfg.engine == EngineMonitor && maxElem > 1 {
		return nil, fmt.Errorf("check: engine monitor decides classical linearizability only; spec %s admits elements of size %d (cap with WithElementCap(1) or use engine auto)", sp.Name(), maxElem)
	}
	c := &Checker{sp: sp, cfg: cfg, maxElem: maxElem}
	c.resolver, _ = sp.(spec.PendingResolver)
	if cfg.metrics != nil {
		c.hElemSize = cfg.metrics.Histogram("check.element_size")
	}
	return c, nil
}

// Spec returns the specification this Checker decides against.
func (c *Checker) Spec() spec.Spec { return c.sp }

// MaxElementSize returns the effective element-size bound the Checker
// decides under: the spec's MaxElementSize clipped by WithElementCap.
// A bound of 1 means classical linearizability — the fragment the
// specialized monitors (and their streaming steppers) decide.
func (c *Checker) MaxElementSize() int { return c.maxElem }

// Check decides whether h is concurrency-aware linearizable with respect
// to the Checker's specification. See CAL for the verdict contract.
func (c *Checker) Check(ctx context.Context, h history.History) (Result, error) {
	var live *atomic.Int64
	if (c.cfg.progressEvery > 0 && c.cfg.progressFn != nil) || c.cfg.live != nil {
		live = new(atomic.Int64)
	}
	if c.cfg.progressEvery > 0 && c.cfg.progressFn != nil {
		stop := obs.StartProgress(c.cfg.progressEvery, int64(c.cfg.maxStates), live.Load, c.cfg.progressFn)
		defer stop()
	}
	if c.cfg.live != nil {
		c.cfg.live.StartSearch("check", int64(c.cfg.maxStates), live.Load, 1)
		defer c.cfg.live.EndSearch()
	}
	return c.check(ctx, h, live)
}

// CheckMany decides concurrency-aware linearizability for a batch of
// histories, fanning the per-history checks across a worker pool
// (WithParallelism, default GOMAXPROCS). Each history is checked
// independently with its own searcher, so results[i] corresponds to
// histories[i] exactly as if Check had been called on it alone.
//
// The returned error joins the per-history input errors (each wrapped
// with its index); results[i] is the zero Result for failed inputs.
// Cancellation is reported in-band per history as Verdict == Unknown,
// matching Check. When progress reporting is configured the whole batch
// shares one reporter whose state count aggregates all workers, with the
// budget scaled to maxStates × len(histories).
func (c *Checker) CheckMany(ctx context.Context, histories []history.History) ([]Result, error) {
	results := make([]Result, len(histories))
	if len(histories) == 0 {
		return results, nil
	}
	workers := c.cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(histories) {
		workers = len(histories)
	}

	var live *atomic.Int64
	if (c.cfg.progressEvery > 0 && c.cfg.progressFn != nil) || c.cfg.live != nil {
		live = new(atomic.Int64)
	}
	budget := int64(c.cfg.maxStates) * int64(len(histories))
	if c.cfg.progressEvery > 0 && c.cfg.progressFn != nil {
		stop := obs.StartProgress(c.cfg.progressEvery, budget, live.Load, c.cfg.progressFn)
		defer stop()
	}
	if c.cfg.live != nil {
		c.cfg.live.StartSearch("check", budget, live.Load, workers)
		defer c.cfg.live.EndSearch()
	}

	labelCtx := ctx
	if labelCtx == nil {
		labelCtx = context.Background()
	}
	errs := make([]error, len(histories))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			// The label makes CPU profiles attributable per pool worker;
			// the live counter counts completed histories, not states.
			pprof.Do(labelCtx, pprof.Labels(
				"calgo_worker", strconv.Itoa(id),
				"calgo_phase", "check",
			), func(context.Context) {
				wl := c.cfg.live.Worker(id)
				for {
					i := int(next.Add(1)) - 1
					if i >= len(histories) {
						return
					}
					res, err := c.check(ctx, histories[i], live)
					if wl != nil {
						wl.Claimed.Add(1)
					}
					if err != nil {
						errs[i] = fmt.Errorf("history %d: %w", i, err)
						continue
					}
					results[i] = res
				}
			})
		}(w)
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// check validates h, builds a private searcher wired to the Checker's
// observability sinks and the (possibly shared) live state counter, and
// runs the search.
func (c *Checker) check(ctx context.Context, h history.History, live *atomic.Int64) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !h.IsWellFormed() {
		return Result{}, errors.New("check: history is not well-formed")
	}
	if c.cfg.completeOnly && !h.IsComplete() {
		return Result{}, fmt.Errorf("check: history has pending invocations %v", h.PendingThreads())
	}
	// Engine dispatch: with CA-elements capped at 1 the specification is
	// classical linearizability, which the specialized monitors decide in
	// O(n log n) for the unambiguous fragment. Under EngineAuto a punt
	// falls through to the DFS below; under EngineMonitor it is final.
	if c.cfg.engine != EngineDFS && c.maxElem == 1 {
		if res, decided := c.tryMonitor(h, live); decided {
			return res, nil
		}
	}
	s := &searcher{
		ctx:       ctx,
		sp:        c.sp,
		resolver:  c.resolver,
		cfg:       c.cfg,
		maxElem:   c.maxElem,
		ops:       h.Operations(),
		tr:        c.cfg.tracer,
		live:      live,
		hElemSize: c.hElemSize,
	}
	return s.run()
}
