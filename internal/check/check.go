// Package check decides concurrency-aware linearizability (Definition 6 of
// the paper): given a history H of an object system and a CA-specification,
// it searches for a completion Hc of H and a CA-trace T admitted by the
// specification such that Hc ⊑CAL T (Definition 5).
//
// The decision procedure generalizes the classic Wing-Gong linearizability
// search from single operations to operation *sets*: instead of picking one
// ready operation as the next linearization point, it picks a set of
// pairwise-overlapping ready operations as the next CA-element. Classical
// linearizability and Neiger's set-linearizability fall out as the special
// cases with element size capped at 1 and at the specification's bound,
// respectively. The search is memoized on (linearized-set, spec-state) pairs
// in the style of Lowe's linearizability tester.
//
// The decision problem is NP-complete, so the searcher is built to degrade
// gracefully rather than hang or exhaust memory: it takes a context.Context
// for cooperative cancellation and wall-clock deadlines, enforces state and
// memoization-memory budgets, and reports a three-valued Verdict — Sat,
// Unsat, or Unknown with the abort cause, frontier statistics and a partial
// witness. Exhausting a budget is an answer ("ran out of resources here"),
// not an error.
package check

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"calgo/internal/history"
	"calgo/internal/obs"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// ErrBound is the Unknown cause when the search exceeds its state budget.
var ErrBound = errors.New("check: state bound exceeded")

// ErrMemoBudget is the Unknown cause when the memoization table exceeds its
// memory budget.
var ErrMemoBudget = errors.New("check: memo memory budget exceeded")

// Result reports the outcome of a check.
type Result struct {
	// Verdict is the three-valued outcome: Sat, Unsat or Unknown.
	Verdict Verdict
	// OK is true iff Verdict == Sat. Kept as the convenient boolean for
	// the overwhelmingly common two-valued callers.
	OK bool
	// Witness is an admitted CA-trace the (completed) history agrees
	// with; set only when OK.
	Witness trace.Trace
	// Dropped lists pending operations removed by the chosen completion;
	// set only when OK.
	Dropped []history.Op
	// Reason describes the failure; set only when Verdict == Unsat.
	Reason string
	// States counts distinct (linearized-set, spec-state) pairs visited.
	States int
	// MemoHits counts search nodes pruned by memoization.
	MemoHits int
	// Unknown carries the abort cause, frontier statistics and partial
	// witness; set only when Verdict == Unknown.
	Unknown *UnknownInfo
	// Explanation is the structured evidence behind the verdict: the
	// history's operations, the (full or deepest-partial) witness trace,
	// and on-demand views of the matched surjection and the blocked
	// operations. Always set on a nil-error Result.
	Explanation *Explanation
	// Engine records which decision procedure produced the verdict:
	// EngineDFS for the search (Witness/States/MemoHits are meaningful),
	// EngineMonitor for the specialized log-linear monitor (Sat carries
	// no witness trace and States is 0).
	Engine Engine
}

type config struct {
	elementCap   int  // 0 = use spec's MaxElementSize
	maxStates    int  // search-state budget
	memoBudget   int  // approximate memo-table key bytes; 0 = unlimited
	memo         bool // memoize failed nodes
	completeOnly bool // reject histories with pending invocations
	workers      int  // CheckMany pool size; 0 = GOMAXPROCS
	engine       Engine

	// Observability sinks; all nil/zero (disabled) by default, and every
	// hook site nil-checks so the disabled hot path costs one branch.
	tracer        obs.Tracer
	metrics       *obs.Metrics
	progressEvery time.Duration
	progressFn    func(obs.Progress)
	live          *obs.LiveRun
}

// Option configures a check.
type Option func(*config)

// WithElementCap caps CA-element sizes below the specification's own bound.
// A cap of 1 yields classical linearizability.
func WithElementCap(n int) Option { return func(c *config) { c.elementCap = n } }

// WithMaxStates bounds the number of distinct search states visited before
// the check gives up with an Unknown verdict (cause ErrBound). The default
// is 4_000_000.
func WithMaxStates(n int) Option { return func(c *config) { c.maxStates = n } }

// WithMemoBudget bounds the approximate byte footprint of the memoization
// table; exceeding it yields an Unknown verdict (cause ErrMemoBudget)
// instead of an OOM kill. 0 (the default) means unlimited.
func WithMemoBudget(bytes int) Option { return func(c *config) { c.memoBudget = bytes } }

// WithoutMemo disables memoization of failed search nodes. Exists for the
// memoization ablation benchmark; never useful otherwise.
func WithoutMemo() Option { return func(c *config) { c.memo = false } }

// WithCompleteOnly rejects histories containing pending invocations instead
// of exploring their completions.
func WithCompleteOnly() Option { return func(c *config) { c.completeOnly = true } }

// WithTracer attaches span-style search hooks (obs.Tracer): SearchStart,
// NodeExpand, MemoHit, ElementAdmit, Backtrack, SearchEnd. A nil tracer
// (the default) costs one branch per hook site and zero allocations.
func WithTracer(t obs.Tracer) Option { return func(c *config) { c.tracer = t } }

// WithMetrics accumulates search statistics into the registry: the
// check.* counters/gauges and the check.element_size histogram (see
// EXPERIMENTS.md, "Metrics schema"). Counter totals are merged once per
// check, off the hot path; the registry may be shared across checkers
// and with the explorer.
func WithMetrics(m *obs.Metrics) Option { return func(c *config) { c.metrics = m } }

// WithProgress reports search progress (states expanded, states/sec, ETA
// against the state budget) to fn every interval, from a dedicated
// goroutine. On CheckMany the batch shares one reporter and the states
// of all workers are aggregated.
func WithProgress(every time.Duration, fn func(obs.Progress)) Option {
	return func(c *config) { c.progressEvery, c.progressFn = every, fn }
}

// WithLive attaches checks to a LiveRun view: the aggregate state count
// and (on CheckMany) per-worker completion counters become pollable by
// the ops server's /statusz. Pull-based: the searcher's existing
// periodic live-count flush feeds it, so the hot path gains no work.
func WithLive(l *obs.LiveRun) Option { return func(c *config) { c.live = l } }

// CAL decides whether h is concurrency-aware linearizable with respect
// to sp. The history must be well-formed; pending invocations are
// handled per Definition 2 (dropped, or completed with responses
// proposed by the specification when it implements spec.PendingResolver).
//
// The context cancels the search cooperatively: cancellation and
// deadline expiry yield an Unknown verdict instead of hanging. The
// returned error is non-nil only for input errors (ill-formed history,
// invalid options); budget exhaustion is likewise reported in-band as
// Verdict == Unknown with Result.Unknown set.
//
// Checking many histories against one specification? Build a Checker
// once and call Check per history instead of re-resolving options here.
func CAL(ctx context.Context, h history.History, sp spec.Spec, opts ...Option) (Result, error) {
	c, err := NewChecker(sp, opts...)
	if err != nil {
		return Result{}, err
	}
	return c.Check(ctx, h)
}

// Linearizable decides classical linearizability: CAL restricted to
// singleton CA-elements, i.e. sequential specifications (Herlihy & Wing).
func Linearizable(ctx context.Context, h history.History, sp spec.Spec, opts ...Option) (Result, error) {
	return CAL(ctx, h, sp, append(opts, WithElementCap(1))...)
}

// SetLinearizable decides set-linearizability (Neiger 1994): identical to
// CAL under this package's trace model, provided as a named entry point.
func SetLinearizable(ctx context.Context, h history.History, sp spec.Spec, opts ...Option) (Result, error) {
	return CAL(ctx, h, sp, opts...)
}

// abortError interrupts the depth-first search; cause is one of ErrBound,
// ErrMemoBudget, context.Canceled or context.DeadlineExceeded.
type abortError struct{ cause error }

func (a *abortError) Error() string { return a.cause.Error() }
func (a *abortError) Unwrap() error { return a.cause }

type searcher struct {
	ctx      context.Context
	sp       spec.Spec
	resolver spec.PendingResolver
	cfg      config
	maxElem  int
	ops      []history.Op

	// Linearization state, maintained incrementally by linearize and
	// unlinearize rather than recomputed per node: the linearized counts
	// and each thread's head. Every thread is sequential, so its
	// operations form a chain under the real-time order ≺H and the
	// linearized ones are a prefix of that chain: the heads name the
	// linearized set exactly.
	nlin      int     // linearized operations
	nlinDone  int     // linearized completed (non-pending) operations
	totalDone int     // completed operations in the history
	thread    []int32 // dense thread index per operation
	next      []int32 // the same thread's next operation, -1 if none
	head      []int32 // per thread: first unlinearized operation, -1 if none

	// memo holds the keys (see memoKey) of the failed nodes; keyBuf is
	// the scratch memoKey builds them in.
	memo      map[string]struct{}
	memoBytes int
	keyBuf    []byte
	states    int
	memoHits  int
	elements  int
	work      int // ticks since the last context poll
	witness   trace.Trace

	// Observability. tr is nil when tracing is off — every hook site
	// nil-checks, so the disabled fast path adds one branch and no
	// allocations. live, when non-nil, receives the state count at every
	// context-poll interval so a progress reporter (possibly shared by a
	// CheckMany batch) can read it concurrently. hElemSize is the cached
	// element-size histogram when metrics are attached.
	tr        obs.Tracer
	live      *atomic.Int64
	livePub   int // states already published to live
	hElemSize *obs.Histogram

	// Scratch: dfs needs a private ready set and subset buffer per node,
	// tryElement a trace.Operation buffer per attempt. Each node's ready
	// set is a segment of readyStack, pushed on entry and popped on
	// return; an append that reallocates leaves outer frames reading
	// their old, unchanged segment. The other buffers are recycled
	// through freelists, so the hot path stops allocating.
	readyStack []int32
	subsetFree [][]int32
	opsFree    [][]trace.Operation

	// Failure diagnostics: the deepest linearization reached. dfs only
	// counts a new best and marks it stale; tryElement copies the witness
	// when it backs out of that node, so a long Sat path copies nothing.
	bestCount   int
	bestStale   bool
	bestWitness trace.Trace
}

// tick counts one unit of search work and polls the context every 1024
// units, so a single pathological node (e.g. subset enumeration over many
// concurrent operations) cannot outlive the deadline.
func (s *searcher) tick() error {
	s.work++
	if s.work&1023 != 0 {
		return nil
	}
	if s.live != nil {
		s.live.Add(int64(s.states - s.livePub))
		s.livePub = s.states
	}
	if err := s.ctx.Err(); err != nil {
		return &abortError{cause: err}
	}
	return nil
}

// setup sizes the search state for s.ops in a handful of allocations:
// both per-operation vectors share one slice. CheckMany amortizes nothing
// across histories, so per-call setup cost is part of the hot path.
func (s *searcher) setup() {
	n := len(s.ops)
	ints := make([]int32, 2*n)
	s.thread, s.next = ints[:n:n], ints[n:]
	last := make(map[history.ThreadID]int32) // thread -> its latest op so far
	for i := range s.ops {
		op := &s.ops[i]
		if !op.Pending {
			s.totalDone++
		}
		s.next[i] = -1
		if p, ok := last[op.Thread]; ok {
			s.thread[i] = s.thread[p]
			s.next[p] = int32(i)
		} else {
			s.thread[i] = int32(len(s.head))
			s.head = append(s.head, int32(i))
		}
		last[op.Thread] = int32(i)
	}
}

func (s *searcher) run() (Result, error) {
	s.setup()
	if s.tr != nil {
		s.tr.SearchStart(len(s.ops))
	}
	// Poll once before searching: a context cancelled before the call
	// deterministically yields Unknown even when the search itself would
	// finish within one poll interval.
	var err error
	var ok bool
	if err = s.ctx.Err(); err != nil {
		err = &abortError{cause: err}
	} else {
		ok, err = s.dfs(s.sp.Init())
	}
	res := Result{States: s.states, MemoHits: s.memoHits}
	if err != nil {
		var abort *abortError
		if errors.As(err, &abort) {
			res.Verdict = Unknown
			res.Unknown = &UnknownInfo{
				Cause:          abort.cause,
				Reason:         abort.cause.Error(),
				Frontier:       s.frontier(),
				PartialWitness: append(trace.Trace(nil), s.bestWitness...),
			}
			res.Explanation = &Explanation{Verdict: Unknown, Ops: s.ops, Witness: res.Unknown.PartialWitness}
			return s.finish(res), nil
		}
		s.finish(res)
		return res, err
	}
	if !ok {
		res.Verdict = Unsat
		// The searcher is single-use, so its deepest-partial buffer can be
		// handed out without copying.
		res.Explanation = &Explanation{Verdict: Unsat, Ops: s.ops, Witness: s.bestWitness}
		res.Reason = s.failureReason(res.Explanation.Stuck())
		return s.finish(res), nil
	}
	res.Verdict = Sat
	res.OK = true
	res.Witness = s.witness
	// Every completed operation is linearized, so a head that remains is
	// its thread's last operation, pending, and dropped by the completion.
	for i, op := range s.ops {
		if s.head[s.thread[i]] == int32(i) {
			res.Dropped = append(res.Dropped, op)
		}
	}
	res.Explanation = &Explanation{Verdict: Sat, Ops: s.ops, Witness: s.witness}
	return s.finish(res), nil
}

// finish runs the cold end-of-search observability work: the closing
// tracer span, the final live-state flush for progress reporters, and
// the one-shot merge of this search's totals into the metrics registry.
func (s *searcher) finish(res Result) Result {
	if s.tr != nil {
		s.tr.SearchEnd(res.Verdict.String(), int64(s.states))
	}
	if s.live != nil {
		s.live.Add(int64(s.states - s.livePub))
		s.livePub = s.states
	}
	if m := s.cfg.metrics; m != nil {
		m.Counter("check.checks").Inc()
		m.Counter("check.states").Add(int64(s.states))
		m.Counter("check.memo_hits").Add(int64(s.memoHits))
		// Every expanded node missed the memo table first.
		m.Counter("check.memo_misses").Add(int64(s.states))
		m.Counter("check.elements").Add(int64(s.elements))
		m.Counter("check.verdict." + strings.ToLower(res.Verdict.String())).Inc()
		m.Gauge("check.frontier_depth").SetMax(int64(s.bestCount))
		m.Gauge("check.memo_bytes").SetMax(int64(s.memoBytes))
	}
	return res
}

func (s *searcher) frontier() Frontier {
	return Frontier{
		BestLinearized: s.bestCount,
		TotalOps:       len(s.ops),
		States:         s.states,
		MemoHits:       s.memoHits,
		MemoBytes:      s.memoBytes,
		Elements:       s.elements,
	}
}

// failureReason renders the Unsat reason, naming the first four of the
// completed operations the deepest search path left unlinearized.
func (s *searcher) failureReason(stuck []int) string {
	reason := fmt.Sprintf("no completion of the history agrees with any CA-trace admitted by %s (explored %d states)",
		s.sp.Name(), s.states)
	if len(stuck) == 0 {
		return reason
	}
	var names []string
	for _, i := range stuck {
		names = append(names, s.ops[i].String())
		if len(names) == 4 {
			names = append(names, "...")
			break
		}
	}
	return fmt.Sprintf("%s; best search linearized %d of %d operations, stuck on %s",
		reason, s.bestCount, len(s.ops), strings.Join(names, ", "))
}

// pushReady appends the ready operations to readyStack in ascending
// order and returns them. An operation is ready iff it is its thread's
// head and was invoked before the earliest response among the completed
// heads: each thread's later operations respond after its head, and a
// pending head is its thread's last operation.
func (s *searcher) pushReady() []int32 {
	minRes := math.MaxInt
	for _, i := range s.head {
		if i >= 0 && !s.ops[i].Pending && s.ops[i].ResIndex < minRes {
			minRes = s.ops[i].ResIndex
		}
	}
	base := len(s.readyStack)
	for _, i := range s.head {
		if i >= 0 && s.ops[i].InvIndex < minRes {
			s.readyStack = append(s.readyStack, i)
		}
	}
	ready := s.readyStack[base:]
	slices.Sort(ready)
	return ready
}

// linearize marks op i linearized, updating the counts and advancing its
// thread's head.
func (s *searcher) linearize(i int) {
	s.nlin++
	if !s.ops[i].Pending {
		s.nlinDone++
	}
	s.head[s.thread[i]] = s.next[i]
}

// unlinearize is the exact inverse of linearize. Calls must unwind in
// reverse linearization order (LIFO), which the search's backtracking
// guarantees.
func (s *searcher) unlinearize(i int) {
	s.head[s.thread[i]] = int32(i)
	s.nlin--
	if !s.ops[i].Pending {
		s.nlinDone--
	}
}

// getSubsetBuf returns a recycled candidate-subset buffer. Its capacity is
// maxElem and enumerate never grows past it, so append never reallocates.
func (s *searcher) getSubsetBuf() []int32 {
	if n := len(s.subsetFree); n > 0 {
		b := s.subsetFree[n-1]
		s.subsetFree = s.subsetFree[:n-1]
		return b[:0]
	}
	return make([]int32, 0, s.maxElem)
}

func (s *searcher) putSubsetBuf(b []int32) { s.subsetFree = append(s.subsetFree, b) }

// getOpsBuf returns a recycled trace.Operation scratch buffer of length n.
// Safe to recycle after trace.NewElement, which copies its input.
func (s *searcher) getOpsBuf(n int) []trace.Operation {
	if l := len(s.opsFree); l > 0 {
		b := s.opsFree[l-1]
		s.opsFree = s.opsFree[:l-1]
		return b[:n]
	}
	return make([]trace.Operation, n, s.maxElem)
}

func (s *searcher) putOpsBuf(b []trace.Operation) { s.opsFree = append(s.opsFree, b[:0]) }

// memoKey builds the current node's memo key in keyBuf: each thread's
// head as a uvarint of head+1, then the spec-state key. The heads name
// the linearized set, a uvarint delimits itself and every key holds one
// per thread, so equal keys mean equal (linearized set, spec state)
// pairs. The key is valid until the next call.
func (s *searcher) memoKey(specKey string) []byte {
	k := s.keyBuf[:0]
	for _, h := range s.head {
		k = binary.AppendUvarint(k, uint64(h+1))
	}
	k = append(k, specKey...)
	s.keyBuf = k
	return k
}

func (s *searcher) dfs(st spec.State) (bool, error) {
	if s.nlinDone == s.totalDone {
		return true, nil
	}
	if err := s.tick(); err != nil {
		return false, err
	}
	if s.nlin > s.bestCount {
		s.bestCount = s.nlin
		s.bestStale = true
	}
	specKey := st.Key()
	// A path that has failed nowhere yet has nothing to look up, so a
	// straight Sat path builds no key.
	if len(s.memo) > 0 {
		if _, hit := s.memo[string(s.memoKey(specKey))]; hit {
			s.memoHits++
			if s.tr != nil {
				s.tr.MemoHit(s.nlin)
			}
			return false, nil
		}
	}
	s.states++
	if s.tr != nil {
		s.tr.NodeExpand(s.nlin, int64(s.states))
	}
	if s.states > s.cfg.maxStates {
		return false, &abortError{cause: fmt.Errorf("%w (limit %d)", ErrBound, s.cfg.maxStates)}
	}

	base := len(s.readyStack)
	ready := s.pushReady()
	subset := s.getSubsetBuf()
	// Enumerate candidate subsets of ready operations sharing an object,
	// pairwise concurrent, of size 1..maxElem.
	ok, err := s.enumerate(st, ready, subset, 0)
	s.putSubsetBuf(subset)
	s.readyStack = s.readyStack[:base]
	if err != nil {
		return false, err
	}
	if !ok && s.cfg.memo {
		// The children overwrote keyBuf; backtracking has restored the
		// heads, so rebuilding gives this node's key.
		key := s.memoKey(specKey)
		s.memoBytes += len(key) + 48
		if s.cfg.memoBudget > 0 && s.memoBytes > s.cfg.memoBudget {
			return false, &abortError{cause: fmt.Errorf("%w (limit %d bytes)", ErrMemoBudget, s.cfg.memoBudget)}
		}
		if s.memo == nil { // created on first insert; lookups tolerate nil
			s.memo = make(map[string]struct{})
		}
		s.memo[string(key)] = struct{}{}
	}
	return ok, nil
}

// enumerate extends subset with ready operations from position start on.
// subset's backing array has capacity maxElem and is shared down the
// recursion of one node; append therefore never reallocates, and each
// frame's length restores itself on return.
func (s *searcher) enumerate(st spec.State, ready, subset []int32, start int) (bool, error) {
	if len(subset) > 0 {
		ok, err := s.tryElement(st, subset)
		if ok || err != nil {
			return ok, err
		}
	}
	if len(subset) == s.maxElem {
		return false, nil
	}
	for k := start; k < len(ready); k++ {
		i := ready[k]
		if !s.compatible(subset, i) {
			continue
		}
		ok, err := s.enumerate(st, ready, append(subset, i), k+1)
		if ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// compatible reports whether ready op i can join the candidate element
// subset: same object as its members. Ready operations are pairwise
// concurrent (had one responded before another was invoked, the other
// would not be ready), so no real-time test is needed.
func (s *searcher) compatible(subset []int32, i int32) bool {
	return len(subset) == 0 || s.ops[subset[0]].Object == s.ops[i].Object
}

// tryElement attempts to linearize the operations in subset as one
// CA-element, resolving pending returns through the specification.
func (s *searcher) tryElement(st spec.State, subset []int32) (bool, error) {
	s.elements++
	if err := s.tick(); err != nil {
		return false, err
	}
	ops := s.getOpsBuf(len(subset))
	defer s.putOpsBuf(ops)
	var pendingIdx []int
	for k, i := range subset {
		op := s.ops[i]
		ops[k] = trace.OpOf(op)
		if op.Pending {
			pendingIdx = append(pendingIdx, k)
		}
	}

	var resolutions [][]history.Value
	if len(pendingIdx) == 0 {
		resolutions = [][]history.Value{nil}
	} else {
		if s.resolver == nil {
			return false, nil // pending ops can only be dropped
		}
		resolutions = s.resolver.ResolveReturns(st, ops, pendingIdx)
	}

	for _, rets := range resolutions {
		if len(rets) != len(pendingIdx) {
			if len(pendingIdx) > 0 {
				continue // malformed resolution; skip defensively
			}
		}
		for k, idx := range pendingIdx {
			ops[idx].Ret = rets[k]
		}
		el, err := trace.NewElement(ops...)
		if err != nil {
			continue // e.g. resolution created a duplicate operation
		}
		next, err := s.sp.Step(st, el)
		if err != nil {
			continue // spec rejects this element
		}
		depth := s.nlin
		for _, i := range subset {
			s.linearize(int(i))
		}
		if s.tr != nil {
			s.tr.ElementAdmit(depth, len(subset))
		}
		if s.hElemSize != nil {
			s.hElemSize.Observe(int64(len(subset)))
		}
		s.witness = append(s.witness, el)
		ok, derr := s.dfs(next)
		if ok {
			return true, nil
		}
		if s.bestStale {
			// No deeper node was reached since the best was counted, so
			// the witness is still the deepest node's.
			s.bestWitness = append(s.bestWitness[:0], s.witness...)
			s.bestStale = false
		}
		s.witness = s.witness[:len(s.witness)-1]
		for k := len(subset) - 1; k >= 0; k-- {
			s.unlinearize(int(subset[k]))
		}
		if s.tr != nil {
			s.tr.Backtrack(depth, len(subset))
		}
		if derr != nil {
			return false, derr
		}
	}
	return false, nil
}
