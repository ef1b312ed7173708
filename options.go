package calgo

import (
	"context"
	"fmt"
	"time"

	"calgo/internal/check"
	"calgo/internal/sched"
	"calgo/internal/stream"
)

// Option configures the facade's entry points. One option vocabulary
// serves the engines: shared options (WithParallelism, WithMaxStates,
// WithTracer, WithMetrics, WithProgress) apply to the checkers and to
// the explorer alike, while engine-specific options (say WithElementCap,
// WithInvariant, or WithStreamWindow) apply to one of them. Passing an
// option to an entry point it does not apply to is an error, reported by
// that entry point — never silently ignored.
type Option struct {
	name   string
	check  check.Option
	sched  sched.Option
	stream func(*stream.Config)
}

// String returns the option's constructor name, for diagnostics.
func (o Option) String() string { return o.name }

// checkOptions projects opts onto the checker engine, rejecting options
// that do not apply to it.
func checkOptions(opts []Option) ([]check.Option, error) {
	out := make([]check.Option, 0, len(opts))
	for _, o := range opts {
		if o.check == nil {
			return nil, fmt.Errorf("calgo: option %s does not apply to checkers", o.name)
		}
		out = append(out, o.check)
	}
	return out, nil
}

// streamOptions projects opts onto a stream configuration. Stream-native
// options edit the Config directly; checker options configure the
// embedded fallback Checker (WithEngine excepted — a stream's engine is
// chosen with WithStreamEngine); anything else is rejected.
func streamOptions(opts []Option) (stream.Config, error) {
	var cfg stream.Config
	for _, o := range opts {
		switch {
		case o.stream != nil:
			o.stream(&cfg)
		case o.name == "WithEngine":
			return cfg, fmt.Errorf("calgo: option WithEngine does not apply to streams; use WithStreamEngine")
		case o.check != nil:
			cfg.CheckOptions = append(cfg.CheckOptions, o.check)
		default:
			return cfg, fmt.Errorf("calgo: option %s does not apply to streams", o.name)
		}
	}
	return cfg, nil
}

// schedOptions projects opts onto the explorer engine, rejecting options
// that do not apply to it.
func schedOptions(opts []Option) ([]sched.Option, error) {
	out := make([]sched.Option, 0, len(opts))
	for _, o := range opts {
		if o.sched == nil {
			return nil, fmt.Errorf("calgo: option %s does not apply to the explorer", o.name)
		}
		out = append(out, o.sched)
	}
	return out, nil
}

// Options shared by the checkers and the explorer.

// WithParallelism sets the worker count of CheckMany's pool and of the
// explorer; 0 (the default) means GOMAXPROCS.
func WithParallelism(n int) Option {
	return Option{name: "WithParallelism", check: check.WithParallelism(n), sched: sched.WithParallelism(n)}
}

// WithMaxStates bounds the number of distinct states visited: the
// checkers give up with VerdictUnknown (cause ErrCheckBound, default
// budget 4_000_000), the explorer returns ErrExploreMaxStates (default
// 1_000_000).
func WithMaxStates(n int) Option {
	return Option{name: "WithMaxStates", check: check.WithMaxStates(n), sched: sched.WithMaxStates(n)}
}

// WithTracer attaches span-style search hooks — SearchStart, NodeExpand,
// MemoHit, ElementAdmit, Backtrack, SearchEnd — to the checker search or
// the exploration. Combine with NewFlightRecorder (bounded in-memory
// ring, dumped post-mortem) or NewLogTracer (sampled JSON lines).
func WithTracer(t Tracer) Option {
	return Option{name: "WithTracer", check: check.WithTracer(t), sched: sched.WithTracer(t)}
}

// WithMetrics accumulates engine totals into the registry: check.* from
// the checkers, sched.* from the explorer, stream.* (plus the embedded
// fallback checker's check.*) from streams (see EXPERIMENTS.md, "Metrics
// schema"). One registry may be shared by all engines and exported with
// Metrics.MarshalJSON or Metrics.PublishExpvar.
func WithMetrics(m *Metrics) Option {
	return Option{
		name:  "WithMetrics",
		check: check.WithMetrics(m),
		sched: sched.WithMetrics(m),
		stream: func(c *stream.Config) {
			c.Metrics = m
			c.CheckOptions = append(c.CheckOptions, check.WithMetrics(m))
		},
	}
}

// WithProgress reports live progress (states, states/sec, ETA against
// the state budget) to fn every interval, from a dedicated goroutine; fn
// receives one final report when the run ends. ProgressPrinter is the
// ready-made fn for status lines on a terminal.
func WithProgress(every time.Duration, fn func(Progress)) Option {
	return Option{name: "WithProgress", check: check.WithProgress(every, fn), sched: sched.WithProgress(every, fn)}
}

// WithLive attaches the run to a LiveRun view: the live state count and
// per-worker utilization become pollable, which is how the embedded ops
// server's /statusz endpoint watches a running check or exploration.
func WithLive(l *LiveRun) Option {
	return Option{name: "WithLive", check: check.WithLive(l), sched: sched.WithLive(l)}
}

// Checker-only options.

// WithElementCap caps CA-element sizes below the specification's own
// bound. A cap of 1 yields classical linearizability.
func WithElementCap(n int) Option {
	return Option{name: "WithElementCap", check: check.WithElementCap(n)}
}

// WithMemoBudget bounds the byte footprint of the checker's memoization
// table; exceeding it yields VerdictUnknown (cause ErrCheckMemoBudget)
// instead of an OOM kill. 0 (the default) means unlimited.
func WithMemoBudget(bytes int) Option {
	return Option{name: "WithMemoBudget", check: check.WithMemoBudget(bytes)}
}

// WithoutMemo disables search memoization (for ablation benchmarks).
func WithoutMemo() Option {
	return Option{name: "WithoutMemo", check: check.WithoutMemo()}
}

// WithCompleteOnly rejects histories with pending invocations instead of
// exploring their completions.
func WithCompleteOnly() Option {
	return Option{name: "WithCompleteOnly", check: check.WithCompleteOnly()}
}

// WithEngine selects the checker's decision procedure: EngineDFS (the
// default) always runs the memoized search, EngineAuto routes eligible
// unambiguous collection histories to the O(n log n) specialized
// monitors with DFS fallback, EngineMonitor forces the monitor and
// yields VerdictUnknown (cause ErrMonitorIneligible) when it cannot
// decide. Verdicts never depend on the engine; only cost and the
// presence of a witness trace do.
func WithEngine(e Engine) Option {
	return Option{name: "WithEngine", check: check.WithEngine(e)}
}

// Stream-only options (NewStream).

// WithStreamWindow bounds the events buffered per object for windowed
// DFS (re-)checking and for falling back from a monitor that leaves its
// unambiguous fragment mid-stream. A stream that outgrows the window
// sheds the buffer and degrades honestly rather than weakening later
// verdicts. Default 65536.
func WithStreamWindow(n int) Option {
	return Option{name: "WithStreamWindow", stream: func(c *stream.Config) { c.Window = n }}
}

// WithStreamCheckEvery sets the fallback re-check cadence: buffered
// events between DFS re-checks, and completed operations between the
// replay steppers' batch re-checks. Default 4096.
func WithStreamCheckEvery(n int) Option {
	return Option{name: "WithStreamCheckEvery", stream: func(c *stream.Config) { c.CheckEvery = n }}
}

// WithStreamEngine selects the per-object streaming decision path:
// StreamEngineAuto (the default) runs incremental monitors with DFS
// fallback, StreamEngineDFS forces windowed re-checking, and
// StreamEngineMonitor forces monitors and degrades instead of falling
// back.
func WithStreamEngine(e StreamEngine) Option {
	return Option{name: "WithStreamEngine", stream: func(c *stream.Config) { c.Engine = e }}
}

// WithStreamContext parents the stream's internal context: cancelling
// ctx degrades in-flight and future fallback re-checks instead of
// blocking Close.
func WithStreamContext(ctx context.Context) Option {
	return Option{name: "WithStreamContext", stream: func(c *stream.Config) { c.Context = ctx }}
}

// Explorer-only options.

// WithInvariant checks fn once on every reached model state. fn runs
// concurrently from up to WithParallelism workers and must be safe for
// concurrent use: guard anything it writes with a mutex or atomics.
func WithInvariant(fn func(ModelState) error) Option {
	return Option{name: "WithInvariant", sched: sched.WithInvariant(fn)}
}

// WithTransition checks fn on every explored transition; use it for
// rely/guarantee action justification. fn runs concurrently from up to
// WithParallelism workers and must be safe for concurrent use.
func WithTransition(fn func(from ModelState, s ModelSucc) error) Option {
	return Option{name: "WithTransition", sched: sched.WithTransition(fn)}
}

// WithTerminal checks fn on every terminal model state. fn runs
// concurrently from up to WithParallelism workers and must be safe for
// concurrent use.
func WithTerminal(fn func(ModelState) error) Option {
	return Option{name: "WithTerminal", sched: sched.WithTerminal(fn)}
}

// WithDeadlockAllowed suppresses the explorer's deadlock error for
// non-terminal states without successors (bounded-retry models).
func WithDeadlockAllowed() Option {
	return Option{name: "WithDeadlockAllowed", sched: sched.WithDeadlockAllowed()}
}
