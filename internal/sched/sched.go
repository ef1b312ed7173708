// Package sched is an exhaustive interleaving explorer for finite-state
// concurrent programs. The models in calgo/internal/model encode the
// paper's algorithms as fine-grained atomic step machines; this package
// enumerates every schedule, checking user-supplied invariants on every
// state, justifying every transition (rely/guarantee checking), and
// running a terminal-state check (CAL verification of the produced history
// against the recorded auxiliary trace) on every maximal execution.
//
// The search is a frontier exploration over a visited set keyed on
// canonical state encodings, so confluent interleavings and retry cycles
// are each explored once. It runs on a pool of work-stealing workers
// (Options.Parallelism, default GOMAXPROCS): each worker owns a LIFO deque
// — giving depth-first locality — and steals the oldest (shallowest)
// frontier nodes from its peers when its own deque drains. The visited set
// is sharded by key hash so workers do not serialize on one lock, and
// counterexample schedules are reconstructed lazily from parent pointers,
// so no per-transition bookkeeping is materialized on the happy path.
//
// Every state is expanded exactly once regardless of worker count, so
// Stats.States, Stats.Transitions and Stats.Terminals are identical for
// every Parallelism value on a given model. Traversal order is not fixed
// above one worker: MaxDepth (the depth at which states happen to be
// claimed first) and, when several violations exist, which one is reported
// may vary from run to run.
package sched

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"calgo/internal/obs"
)

// State is a node of the transition system. Implementations must be
// immutable: Successors returns fresh states. Immutability is also what
// makes states safe to hand across exploration workers.
type State interface {
	// Key is a canonical encoding of the state; two states are identified
	// iff their keys are equal. It is a byte string for the visited set,
	// not display text: the models in calgo/internal/model encode their
	// fields in an exact binary form, and nothing identifies states by a
	// hash alone.
	Key() string
	// Successors enumerates every atomic step any thread can take.
	Successors() []Succ
	// Done reports whether the state is terminal by completion (every
	// thread finished its program). States with no successors that are
	// not Done are deadlocks and reported as errors.
	Done() bool
}

// Succ is one outgoing transition.
type Succ struct {
	// Thread is the index of the stepping thread.
	Thread int
	// Label names the action taken, e.g. "INIT", "XCHG", "tau". Labels
	// appear in counterexample traces and are passed to the Transition
	// hook.
	Label string
	// Next is the successor state.
	Next State
}

// Options configures an exploration. The Invariant, Transition and
// Terminal hooks run concurrently on the worker pool and must be safe for
// concurrent use; hooks that only read the (immutable) states they are
// given are safe by construction.
type Options struct {
	// Invariant, if set, is checked once on every reached state.
	Invariant func(State) error
	// Transition, if set, is checked on every explored transition; use it
	// for rely/guarantee action justification.
	Transition func(from State, s Succ) error
	// Terminal, if set, is checked on every Done state.
	Terminal func(State) error
	// MaxStates bounds the number of distinct states visited
	// (default 1_000_000).
	MaxStates int
	// AllowDeadlock suppresses the deadlock error for non-Done states
	// without successors. Bounded-retry models use it: a thread that
	// exhausted its retry budget halts without completing its program.
	AllowDeadlock bool
	// Parallelism is the number of exploration workers; 0 (the default)
	// means GOMAXPROCS. States, Transitions and Terminals do not depend
	// on it.
	Parallelism int

	// Observability sinks, set through WithTracer, WithMetrics,
	// WithProgress and WithLive; all disabled (nil/zero) by default.
	// Every hook site nil-checks, so the disabled hot path costs one
	// branch.
	tracer        obs.Tracer
	metrics       *obs.Metrics
	progressEvery time.Duration
	progressFn    func(obs.Progress)
	live          *obs.LiveRun
}

// Option configures an exploration; see Explore.
type Option func(*Options)

// WithInvariant checks fn once on every reached state. fn runs
// concurrently from up to Parallelism workers and must be safe for
// concurrent use: guard anything it writes with a mutex or atomics.
func WithInvariant(fn func(State) error) Option { return func(o *Options) { o.Invariant = fn } }

// WithTransition checks fn on every explored transition; use it for
// rely/guarantee action justification. fn runs concurrently from up to
// Parallelism workers and must be safe for concurrent use.
func WithTransition(fn func(from State, s Succ) error) Option {
	return func(o *Options) { o.Transition = fn }
}

// WithTerminal checks fn on every Done state. fn runs concurrently from
// up to Parallelism workers and must be safe for concurrent use.
func WithTerminal(fn func(State) error) Option { return func(o *Options) { o.Terminal = fn } }

// WithMaxStates bounds the number of distinct states visited before the
// exploration gives up with ErrMaxStates (default 1_000_000).
func WithMaxStates(n int) Option { return func(o *Options) { o.MaxStates = n } }

// WithDeadlockAllowed suppresses the deadlock error for non-Done states
// without successors; bounded-retry models halt threads that exhausted
// their budget.
func WithDeadlockAllowed() Option { return func(o *Options) { o.AllowDeadlock = true } }

// WithParallelism sets the number of exploration workers; 0 (the
// default) means GOMAXPROCS. It is the same option name the check
// package uses for its batch pool, so the facade can re-export one
// spelling for both.
func WithParallelism(n int) Option { return func(o *Options) { o.Parallelism = n } }

// WithTracer attaches search hooks to the exploration: SearchStart
// (argument: worker count), NodeExpand on every expanded state, MemoHit
// on every visited-set suppression, SearchEnd. ElementAdmit/Backtrack
// never fire — the frontier exploration does not backtrack. The tracer
// is shared by all workers and must be safe for concurrent use (the obs
// implementations are).
func WithTracer(t obs.Tracer) Option { return func(o *Options) { o.tracer = t } }

// WithMetrics accumulates exploration totals into the registry: the
// sched.* counters and max-depth gauge (see EXPERIMENTS.md, "Metrics
// schema"). Workers keep private counters; totals are merged into the
// registry once, after the pool drains.
func WithMetrics(m *obs.Metrics) Option { return func(o *Options) { o.metrics = m } }

// WithProgress reports exploration progress (states claimed, states/sec,
// ETA against the state budget) to fn every interval, from a dedicated
// goroutine. The live count is read from the budget counter the
// exploration already maintains, so enabling progress adds no hot-path
// work.
func WithProgress(every time.Duration, fn func(obs.Progress)) Option {
	return func(o *Options) { o.progressEvery, o.progressFn = every, fn }
}

// WithLive attaches the exploration to a LiveRun view: the state counter
// and per-worker claim/steal counters become pollable (the ops server's
// /statusz reads them). Pull-based — nothing is pushed, so enabling it
// adds two atomic increments per expanded state and nothing else.
func WithLive(l *obs.LiveRun) Option { return func(o *Options) { o.live = l } }

// Stats summarizes an exploration.
type Stats struct {
	// States is the number of distinct states visited.
	States int
	// Transitions is the number of transitions explored.
	Transitions int
	// Terminals is the number of terminal (Done or halted) states reached.
	Terminals int
	// MaxDepth is the deepest schedule explored. Unlike the counts above
	// it depends on traversal order and may vary across worker counts.
	MaxDepth int
	// Steals is the number of frontier nodes taken from another worker's
	// deque. Like MaxDepth it is schedule-dependent: zero with one worker,
	// and run-to-run variable above that.
	Steals int
}

// ErrMaxStates is returned when the exploration exceeds its state budget.
var ErrMaxStates = errors.New("sched: state budget exceeded")

// ErrInterrupted is returned when Options.Context is cancelled or its
// deadline expires mid-exploration; errors.Is also matches the context's
// own error (context.Canceled or context.DeadlineExceeded) via wrapping.
var ErrInterrupted = errors.New("sched: exploration interrupted")

// Step is one step of a counterexample schedule: thread Thread took the
// transition labeled Label.
type Step struct {
	// Thread is the index of the stepping thread.
	Thread int `json:"thread"`
	// Label names the action taken, e.g. "INIT", "XCHG", "tau".
	Label string `json:"label"`
}

// String renders the step in the traditional "t0:LABEL" form.
func (s Step) String() string { return "t" + strconv.Itoa(s.Thread) + ":" + s.Label }

// ViolationError describes a check failure together with the schedule that
// reached it.
type ViolationError struct {
	// Kind is "invariant", "transition", "terminal" or "deadlock".
	Kind string
	// Err is the underlying check failure.
	Err error
	// Schedule is the sequence of steps from the initial state to the
	// violating one.
	Schedule []Step
}

// ScheduleStrings renders the schedule in the former "t0:LABEL" string
// form, kept for callers that log or diff schedules textually.
func (v *ViolationError) ScheduleStrings() []string {
	out := make([]string, len(v.Schedule))
	for i, s := range v.Schedule {
		out[i] = s.String()
	}
	return out
}

// Error implements error.
func (v *ViolationError) Error() string {
	return fmt.Sprintf("sched: %s violation: %v\nschedule: %s",
		v.Kind, v.Err, strings.Join(v.ScheduleStrings(), " "))
}

// Unwrap exposes the underlying failure.
func (v *ViolationError) Unwrap() error { return v.Err }

// node is one claimed state of the frontier. The parent chain records how
// the state was first reached; a schedule is only materialized from it
// when a violation needs reporting, so the exploration hot path performs
// no string formatting. Drained subtrees become unreachable and are
// reclaimed by the garbage collector.
type node struct {
	state  State
	parent *node
	thread int
	label  string
	depth  int
}

// schedule walks the parent chain and materializes the step list from
// the initial state to this node.
func (n *node) schedule() []Step {
	depth := 0
	for m := n; m.parent != nil; m = m.parent {
		depth++
	}
	out := make([]Step, depth)
	for m := n; m.parent != nil; m = m.parent {
		depth--
		out[depth] = Step{Thread: m.thread, Label: m.label}
	}
	return out
}

// visitedShards is the shard count of the visited set; a power of two so
// shard selection is a mask. 64 shards keep contention negligible for any
// plausible worker count.
const visitedShards = 64

// visitedSet is a sharded string set. Claim is the only operation:
// insert-if-absent, reporting whether the caller won the insertion.
type visitedSet struct {
	seed   maphash.Seed // picks a key's shard; the shard's map holds the key itself
	shards [visitedShards]struct {
		mu sync.Mutex
		m  map[string]struct{}
		_  [40]byte // pad to a cache line; shards are hammered by all workers
	}
}

func (v *visitedSet) init() {
	v.seed = maphash.MakeSeed()
	for i := range v.shards {
		v.shards[i].m = make(map[string]struct{})
	}
}

// shardOf returns the index of the shard that holds key.
func (v *visitedSet) shardOf(key string) uint64 {
	return maphash.String(v.seed, key) & (visitedShards - 1)
}

// claim records key as visited and reports whether it was new.
func (v *visitedSet) claim(key string) bool {
	sh := &v.shards[v.shardOf(key)]
	sh.mu.Lock()
	_, seen := sh.m[key]
	if !seen {
		sh.m[key] = struct{}{}
	}
	sh.mu.Unlock()
	return !seen
}

// deque is a worker's work queue: the owner pushes and pops at the tail
// (depth-first), thieves take from the head (the shallowest, and therefore
// largest, pending subtrees).
type deque struct {
	mu   sync.Mutex
	buf  []*node
	head int
}

func (d *deque) push(n *node) {
	d.mu.Lock()
	d.buf = append(d.buf, n)
	d.mu.Unlock()
}

func (d *deque) pop() *node {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.buf) {
		d.buf, d.head = d.buf[:0], 0
		return nil
	}
	n := d.buf[len(d.buf)-1]
	d.buf[len(d.buf)-1] = nil
	d.buf = d.buf[:len(d.buf)-1]
	return n
}

func (d *deque) steal() *node {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.buf) {
		return nil
	}
	n := d.buf[d.head]
	d.buf[d.head] = nil
	d.head++
	return n
}

// worker is the per-worker state: its deque, privately accumulated Stats
// (merged once at the end), scratch space, and the context poll counter.
type worker struct {
	deque deque
	stats Stats
	kids  []*node
	work  int
	_     [64]byte // keep workers off each other's cache lines
}

type engine struct {
	ctx     context.Context // cancels the exploration; nil means never
	opts    Options
	visited visitedSet
	workers []worker
	pending atomic.Int64 // claimed nodes not yet fully expanded
	states  atomic.Int64 // global claim count, for the MaxStates budget
	stop    atomic.Bool
	errMu   sync.Mutex
	err     error
}

// fail records the first failure and stops the exploration. Above one
// worker "first" is the first to be recorded, not a fixed traversal order.
func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
	e.stop.Store(true)
}

func (e *engine) firstErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// Explore exhaustively explores the transition system rooted at init.
// The context cancels the exploration cooperatively: cancellation and
// deadline expiry return ErrInterrupted (wrapping the context's error)
// with partial Stats. Nil means never cancelled.
func Explore(ctx context.Context, init State, opts ...Option) (Stats, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return explore(ctx, init, o)
}

func explore(ctx context.Context, init State, opts Options) (Stats, error) {
	if opts.MaxStates == 0 {
		opts.MaxStates = 1_000_000
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	e := &engine{ctx: ctx, opts: opts, workers: make([]worker, par)}
	e.visited.init()

	// The initial state is checked inline (empty schedule) before the
	// pool starts; workers check the invariant once on every state they
	// claim after that.
	if opts.Invariant != nil {
		if err := opts.Invariant(init); err != nil {
			return Stats{}, &ViolationError{Kind: "invariant", Err: err}
		}
	}
	e.visited.claim(init.Key())
	w0 := &e.workers[0]
	w0.stats.States = 1
	e.states.Store(1)
	if opts.MaxStates < 1 {
		return w0.stats, fmt.Errorf("%w (limit %d)", ErrMaxStates, opts.MaxStates)
	}
	w0.deque.push(&node{state: init})
	e.pending.Store(1)

	if opts.tracer != nil {
		opts.tracer.SearchStart(par)
	}
	if opts.progressEvery > 0 && opts.progressFn != nil {
		// The budget counter the exploration already maintains doubles as
		// the live progress count; no extra hot-path work.
		stop := obs.StartProgress(opts.progressEvery, int64(opts.MaxStates), e.states.Load, opts.progressFn)
		defer stop()
	}
	// The same counter backs the live /statusz view when one is attached.
	opts.live.StartSearch("explore", int64(opts.MaxStates), e.states.Load, par)
	defer opts.live.EndSearch()

	// Workers run under pprof labels so CPU profiles attribute time per
	// worker and phase.
	labelCtx := ctx
	if labelCtx == nil {
		labelCtx = context.Background()
	}
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			pprof.Do(labelCtx, pprof.Labels(
				"calgo_worker", strconv.Itoa(id),
				"calgo_phase", "explore",
			), func(context.Context) { e.run(id) })
		}(i)
	}
	wg.Wait()

	var stats Stats
	for i := range e.workers {
		ws := &e.workers[i].stats
		stats.States += ws.States
		stats.Transitions += ws.Transitions
		stats.Terminals += ws.Terminals
		stats.Steals += ws.Steals
		if ws.MaxDepth > stats.MaxDepth {
			stats.MaxDepth = ws.MaxDepth
		}
	}
	err := e.firstErr()
	if m := opts.metrics; m != nil {
		m.Counter("sched.explorations").Inc()
		m.Counter("sched.states").Add(int64(stats.States))
		m.Counter("sched.transitions").Add(int64(stats.Transitions))
		m.Counter("sched.terminals").Add(int64(stats.Terminals))
		m.Counter("sched.steals").Add(int64(stats.Steals))
		m.Gauge("sched.max_depth").SetMax(int64(stats.MaxDepth))
	}
	if opts.tracer != nil {
		opts.tracer.SearchEnd(exploreVerdict(err), int64(stats.States))
	}
	return stats, err
}

// exploreVerdict maps an exploration outcome onto the tracer's verdict
// vocabulary: OK, Violation, or Unknown for budget/cancellation aborts.
func exploreVerdict(err error) string {
	switch {
	case err == nil:
		return "OK"
	case errors.As(err, new(*ViolationError)):
		return "Violation"
	default:
		return "Unknown"
	}
}

// run is a worker's main loop: drain the own deque depth-first, steal when
// empty, exit when the exploration stopped or no work remains anywhere.
func (e *engine) run(id int) {
	w := &e.workers[id]
	wl := e.opts.live.Worker(id) // nil when no LiveRun is attached
	for {
		if e.stop.Load() {
			return
		}
		n := w.deque.pop()
		if n == nil {
			if n = e.steal(id); n != nil {
				w.stats.Steals++
				if wl != nil {
					wl.Steals.Add(1)
				}
			}
		}
		if n == nil {
			if e.pending.Load() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		if wl != nil {
			wl.Claimed.Add(1)
		}
		e.process(w, n)
		e.pending.Add(-1)
	}
}

// steal scans the other workers round-robin for a shallow frontier node.
func (e *engine) steal(id int) *node {
	for i := 1; i < len(e.workers); i++ {
		if n := e.workers[(id+i)%len(e.workers)].deque.steal(); n != nil {
			return n
		}
	}
	return nil
}

// poll checks the cancellation context every 256 transitions; branching in
// these models is narrow, so a few hundred transitions pass in microseconds
// and cancellation latency stays far below any useful deadline.
func (e *engine) poll(w *worker) error {
	if e.ctx == nil {
		return nil
	}
	w.work++
	if w.work&255 != 0 {
		return nil
	}
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrInterrupted, err)
	}
	return nil
}

// process expands one claimed state: invariant, terminal/deadlock checks,
// then every outgoing transition. Newly claimed successors are pushed in
// reverse so the owner pops them in successor order — with one worker this
// reproduces the sequential depth-first traversal.
func (e *engine) process(w *worker, n *node) {
	if n.parent != nil && e.opts.Invariant != nil {
		if err := e.opts.Invariant(n.state); err != nil {
			e.fail(&ViolationError{Kind: "invariant", Err: err, Schedule: n.schedule()})
			return
		}
	}
	if n.depth > w.stats.MaxDepth {
		w.stats.MaxDepth = n.depth
	}
	if e.opts.tracer != nil {
		e.opts.tracer.NodeExpand(n.depth, e.states.Load())
	}
	succs := n.state.Successors()
	if len(succs) == 0 {
		w.stats.Terminals++
		if !n.state.Done() && !e.opts.AllowDeadlock {
			e.fail(&ViolationError{
				Kind:     "deadlock",
				Err:      errors.New("state has no successors but threads are unfinished"),
				Schedule: n.schedule(),
			})
			return
		}
		if e.opts.Terminal != nil {
			if err := e.opts.Terminal(n.state); err != nil {
				e.fail(&ViolationError{Kind: "terminal", Err: err, Schedule: n.schedule()})
			}
		}
		return
	}

	kids := w.kids[:0]
	for _, succ := range succs {
		if err := e.poll(w); err != nil {
			e.fail(err)
			return
		}
		w.stats.Transitions++
		if e.opts.Transition != nil {
			if err := e.opts.Transition(n.state, succ); err != nil {
				e.fail(&ViolationError{
					Kind:     "transition",
					Err:      err,
					Schedule: append(n.schedule(), Step{Thread: succ.Thread, Label: succ.Label}),
				})
				return
			}
		}
		if !e.visited.claim(succ.Next.Key()) {
			if e.opts.tracer != nil {
				e.opts.tracer.MemoHit(n.depth + 1)
			}
			continue
		}
		w.stats.States++
		if total := e.states.Add(1); total > int64(e.opts.MaxStates) {
			e.fail(fmt.Errorf("%w (limit %d)", ErrMaxStates, e.opts.MaxStates))
			return
		}
		kids = append(kids, &node{
			state:  succ.Next,
			parent: n,
			thread: succ.Thread,
			label:  succ.Label,
			depth:  n.depth + 1,
		})
	}
	e.pending.Add(int64(len(kids)))
	for i := len(kids) - 1; i >= 0; i-- {
		w.deque.push(kids[i])
	}
	w.kids = kids[:0]
}
