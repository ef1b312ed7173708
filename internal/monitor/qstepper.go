package monitor

import (
	"fmt"
	"sort"

	"calgo/internal/history"
	"calgo/internal/spec"
)

// queueStepper is the queue monitor, for batch and stream alike: Check
// feeds it a whole history (see decideQueue), NewStepper one event
// at a time. It decides linearizability of an unambiguous FIFO-queue
// history by the bad patterns Q0–Q4 (event indices are stream positions;
// an op with invocation index a and response index b linearizes at some
// real point in the open interval (a, b)):
//
//	Q0  a value is dequeued but never enqueued;
//	Q1  a value is dequeued entirely before its enqueue (eInv > dRes);
//	Q2  FIFO inversion: u is enqueued strictly before w (eRes_u ≤ eInv_w)
//	    yet w is dequeued strictly before u's dequeue starts
//	    (dRes_w ≤ dInv_u) — no linearization can order both pairs;
//	Q3  a dequeued value is enqueued strictly after some never-dequeued
//	    value's enqueue completes — FIFO forces the unmatched value out
//	    first, but it is never dequeued;
//	Q4  an empty-dequeue window is covered by the merged closed cores
//	    [eRes, dInv] of values surely present throughout it.
//
// A history with none of these patterns is linearizable (completeness of
// the pattern set for unambiguous queue histories; cf. Bouajjani–Emmi–
// Enea–Hamza and Lee–Mathur). Each pattern is re-derived as a prefix
// property, evaluated the moment its last constituent event arrives:
//
//	Q0/Q1 at deq ▷ v response: if no enqueue of v is outstanding (enq(v)
//	is not invoked yet, or its record was shed), the prefix is bad — a
//	future enq(v) starts after this response (Q1), no enq at all is Q0,
//	and a second dequeue of a shed value has no enqueue left to match.
//	The stepper reports Q0; Check, which sees the whole history, names
//	Q1 when enq(v) comes later. If enq(v) is invoked but unresponded the
//	match is legal (the enqueue linearizes early); its response fills in
//	eRes later.
//
//	Q2 at dRes_u: both dequeues have completed by then (dRes_w ≤ dInv_u
//	< dRes_u), so an append-only log of completed dequeues in dRes order,
//	each carrying the logged dequeue of largest eInv so far, answers
//	"max eInv over dRes ≤ dInv_u" by binary search. If enq(u) is still
//	pending, eRes_u exceeds every logged eInv and no instance exists yet
//	— and none ever will, since later dequeues respond after dInv_u.
//
//	Q3 is not prefix-stable — an unmatched value may be dequeued later —
//	so it is evaluated only at Finish on a complete stream, from the
//	matched value of largest eInv and the unmatched value of least eRes.
//
//	Q4 is deferred until every dequeue invoked before y has responded,
//	for an empty deq with window (x, y); dequeues invoked after y remove
//	values at dInv ≥ y and cannot shrink coverage below y, so the
//	evaluation is then final and equal to the whole-history verdict.
//	Matched cores [eRes, dInv] live in a merged disjoint interval set;
//	values unmatched at evaluation time contribute [eRes, ∞), collapsed
//	into the single least unmatched eRes.
//
// Shedding: a value record is dropped as soon as both its operations
// completed and its contributions are folded into the Q2 log, the core
// set and the Q3 maximum; Q2 log entries and cores wholly before the
// oldest pending invocation (and oldest deferred empty window) can never
// be queried again and are dropped too, folding their maximum into a
// base entry. Resident state therefore tracks the live window, not the
// stream length. What shedding costs is the record of values already
// seen: a value enqueued again after its record was shed is treated as
// fresh, and dequeued again, as Q0. Check rejects both as ambiguous
// before it runs the stepper.
type queueStepper struct {
	pend map[history.ThreadID]stepPending
	vals map[int64]qsVal

	// Q2: completed value-dequeues in dRes order. deqBase is the maximum
	// of the shed front entries (eInv -1 when none).
	deqLog  []qDeqEntry
	deqBase qDeq

	// Q3: the matched value of largest eInv (eInv -1 when none).
	maxMatched qDeq

	// Q4.
	cores         coreSet
	unmatched     []eResItem // completed enqueues in eRes order; matched ones are skipped lazily
	unmatchedHead int
	liveUnmatched int
	deferred      []qEmpty // empty-deq windows awaiting older dequeues; y increasing
	deferredHead  int

	pendingInv pendMinTracker // invocation indices of all pending ops (shed floor)
	pendingDeq pendMinTracker // invocation indices of pending dequeues (Q4 deferral)

	events, opsDone, lastIdx int
	lastShedPass             int
	shed                     int64
	done                     *StepResult
}

// qsVal is the live record of one value.
type qsVal struct {
	eInv, eRes int // eRes == -1 while the enqueue is unresponded
	dInv       int // -1 until the value is dequeued
}

// qDeq is one completed value-dequeue as the Q2 and Q3 checks name it.
type qDeq struct {
	v          int64
	eInv, dRes int
}

// qDeqEntry logs a completed dequeue at dRes with max, the logged
// dequeue of largest eInv up to and including this one.
type qDeqEntry struct {
	dRes int
	max  qDeq
}

type qEmpty struct {
	x, y int // open window (dInv, dRes) of an empty dequeue
}

// eResItem is a completed enqueue in the unmatched FIFO.
type eResItem struct {
	eRes int
	v    int64
}

func newQueueStepper() *queueStepper {
	return &queueStepper{
		pend:       make(map[history.ThreadID]stepPending),
		vals:       make(map[int64]qsVal),
		deqBase:    qDeq{eInv: -1},
		maxMatched: qDeq{eInv: -1},
	}
}

// decideQueue decides a complete queue history with the queue
// stepper. The stepper cannot see a value enqueued or dequeued twice once
// it has shed the value's record, so one pass over ops first rejects
// those ambiguities; it also notes where each value is enqueued, so a
// stepper Q0 on a value enqueued later in the history is named Q1.
func decideQueue(h history.History, ops []history.Op) Result {
	type seen struct {
		eInv     int
		enq, deq bool
	}
	vals := make(map[int64]seen, len(ops)/2)
	for i := range ops {
		op := &ops[i]
		switch {
		case op.Method == spec.MethodEnq && op.Arg.Kind == history.KindInt:
			sv := vals[op.Arg.N]
			if sv.enq {
				return ineligible(KindQueue, ops, "value %d enqueued more than once (ambiguous history)", op.Arg.N)
			}
			sv.enq, sv.eInv = true, op.InvIndex
			vals[op.Arg.N] = sv
		case op.Method == spec.MethodDeq && op.Ret.Kind == history.KindPair && op.Ret.B:
			sv := vals[op.Ret.N]
			if sv.deq {
				return ineligible(KindQueue, ops, "value %d dequeued more than once (ambiguous history)", op.Ret.N)
			}
			sv.deq = true
			vals[op.Ret.N] = sv
		}
	}
	st := newQueueStepper()
	r := stepOK
	for i := range h {
		if r = st.Advance(h[i], i); r.Outcome != OK {
			break
		}
	}
	if r.Outcome == OK {
		r = st.Finish()
	}
	switch r.Outcome {
	case OK:
		return Result{Kind: KindQueue, Outcome: OK, Ops: ops}
	case Violation:
		if ev := h[r.AtEvent]; ev.Ret.Kind == history.KindPair && ev.Ret.B {
			if sv := vals[ev.Ret.N]; sv.enq && sv.eInv > r.AtEvent {
				return violation(KindQueue, ops,
					"Q1: deq ▷ %d completes at %d before enq(%d) is invoked at %d", ev.Ret.N, r.AtEvent, ev.Ret.N, sv.eInv)
			}
		}
	}
	return Result{Kind: KindQueue, Outcome: r.Outcome, Reason: r.Reason, Ops: ops}
}

func (s *queueStepper) Kind() Kind { return KindQueue }

func (s *queueStepper) fail(o Outcome, at int, format string, args ...any) StepResult {
	res := StepResult{Outcome: o, Reason: fmt.Sprintf(format, args...), AtEvent: at}
	s.done = &res
	return res
}

func (s *queueStepper) Advance(ev history.Event, idx int) StepResult {
	if s.done != nil {
		return *s.done
	}
	s.events++
	s.lastIdx = idx
	switch ev.Kind {
	case history.Invoke:
		// An assignment that leaves the map's size unchanged overwrote a
		// pending operation; the failure is sticky, so the loss is moot.
		n := len(s.pend)
		if s.pend[ev.Thread] = (stepPending{method: ev.Method, arg: ev.Arg, inv: idx}); len(s.pend) == n {
			return s.fail(Ineligible, idx, "thread %s invokes %s while an operation is pending", ev.Thread, ev.Method)
		}
		switch ev.Method {
		case spec.MethodEnq:
			if ev.Arg.Kind != history.KindInt {
				return s.fail(Ineligible, idx, "enq at inv=%d is not int ▷ true", idx)
			}
			v := ev.Arg.N
			if _, dup := s.vals[v]; dup {
				return s.fail(Ineligible, idx, "value %d enqueued more than once (ambiguous history)", v)
			}
			s.vals[v] = qsVal{eInv: idx, eRes: -1, dInv: -1}
		case spec.MethodDeq:
			if ev.Arg.Kind != history.KindUnit {
				return s.fail(Ineligible, idx, "deq at inv=%d is not () ▷ (bool,int)", idx)
			}
			s.pendingDeq.push(idx)
		default:
			return s.fail(Ineligible, idx, "unknown queue method %s", ev.Method)
		}
		s.pendingInv.push(idx)
	case history.Respond:
		p, ok := s.pend[ev.Thread]
		if !ok || p.method != ev.Method {
			return s.fail(Ineligible, idx, "response %s on thread %s does not match a pending invocation", ev.Method, ev.Thread)
		}
		delete(s.pend, ev.Thread)
		s.pendingInv.resolve(p.inv)
		s.opsDone++
		var res StepResult
		switch ev.Method {
		case spec.MethodEnq:
			res = s.enqDone(p, ev, idx)
		case spec.MethodDeq:
			s.pendingDeq.resolve(p.inv)
			res = s.deqDone(p, ev, idx)
		default:
			res = s.fail(Ineligible, idx, "unknown queue method %s", ev.Method)
		}
		if res.Outcome != OK {
			return res
		}
		if res = s.drainDeferred(); res.Outcome != OK {
			return res
		}
		s.maybeShed()
	default:
		return s.fail(Ineligible, idx, "unknown event kind %d", ev.Kind)
	}
	return stepOK
}

func (s *queueStepper) enqDone(p stepPending, ev history.Event, idx int) StepResult {
	if ev.Ret.Kind != history.KindBool || !ev.Ret.B {
		return s.fail(Ineligible, idx, "enq at inv=%d is not int ▷ true", p.inv)
	}
	v := p.arg.N
	qv := s.vals[v] // present: created at the invocation
	if qv.dInv >= 0 {
		// The dequeue completed while this enqueue was unresponded: the
		// value linearizes early. No Q2 instance can name it as u (every
		// logged eInv precedes eRes_u = now), and its core [eRes, dInv]
		// is empty, so shed it.
		delete(s.vals, v)
		s.shed++
		return stepOK
	}
	qv.eRes = idx
	s.vals[v] = qv
	s.unmatched = append(s.unmatched, eResItem{eRes: idx, v: v})
	s.liveUnmatched++
	return stepOK
}

func (s *queueStepper) deqDone(p stepPending, ev history.Event, idx int) StepResult {
	if ev.Ret.Kind != history.KindPair {
		return s.fail(Ineligible, idx, "deq at inv=%d is not () ▷ (bool,int)", p.inv)
	}
	x, y := p.inv, idx
	if !ev.Ret.B {
		if ev.Ret.N != 0 {
			return s.fail(Violation, idx,
				"failed deq at inv=%d returns (false,%d); the spec admits only (false,0)", p.inv, ev.Ret.N)
		}
		s.deferred = append(s.deferred, qEmpty{x: x, y: y})
		return stepOK
	}
	v := ev.Ret.N
	qv, ok := s.vals[v]
	if !ok {
		return s.fail(Violation, idx,
			"Q0: deq ▷ %d completes at %d but no enqueue of %d is outstanding", v, idx, v)
	}
	if qv.dInv >= 0 {
		return s.fail(Ineligible, idx, "value %d dequeued more than once (ambiguous history)", v)
	}
	qv.dInv = x
	d := qDeq{v: v, eInv: qv.eInv, dRes: y}
	if d.eInv > s.maxMatched.eInv {
		s.maxMatched = d
	}
	if qv.eRes >= 0 {
		s.liveUnmatched--
		// Q2 with this value as u: any FIFO-inverted w has already
		// completed its dequeue (dRes_w ≤ dInv_u = x < now).
		if w := s.deqMaxUpTo(x); w.eInv >= qv.eRes {
			return s.fail(Violation, idx,
				"Q2: FIFO inversion — enq(%d) completes at %d before enq(%d) starts at %d, but deq ▷ %d completes at %d before deq ▷ %d starts at %d",
				v, qv.eRes, w.v, w.eInv, w.v, w.dRes, v, x)
		}
		if qv.eRes < x {
			s.cores.insert(qv.eRes, x)
		}
	}
	// Log the completed dequeue for future Q2 queries (eInv is known even
	// when the enqueue is still unresponded).
	top := s.deqBase
	if n := len(s.deqLog); n > 0 {
		top = s.deqLog[n-1].max
	}
	if d.eInv > top.eInv {
		top = d
	}
	s.deqLog = append(s.deqLog, qDeqEntry{dRes: y, max: top})
	if qv.eRes >= 0 {
		delete(s.vals, v)
		s.shed++
	} else {
		s.vals[v] = qv
	}
	return stepOK
}

// deqMaxUpTo returns the logged dequeue of largest eInv among those with
// dRes ≤ x, including the folded base of shed entries (every shed entry
// has dRes below any reachable query threshold).
func (s *queueStepper) deqMaxUpTo(x int) qDeq {
	i := sort.Search(len(s.deqLog), func(i int) bool { return s.deqLog[i].dRes > x }) - 1
	if i < 0 {
		return s.deqBase
	}
	return s.deqLog[i].max
}

// minUnmatched skips stale FIFO heads (values matched or shed since) and
// returns the unmatched completed enqueue of least eRes, eRes infIdx
// when none.
func (s *queueStepper) minUnmatched() eResItem {
	for ; s.unmatchedHead < len(s.unmatched); s.unmatchedHead++ {
		if it := s.unmatched[s.unmatchedHead]; s.isUnmatched(it) {
			return it
		}
	}
	return eResItem{eRes: infIdx}
}

func (s *queueStepper) isUnmatched(it eResItem) bool {
	qv, ok := s.vals[it.v]
	return ok && qv.eRes == it.eRes && qv.dInv < 0
}

// drainDeferred evaluates deferred empty-dequeue windows whose result is
// final: once no dequeue invoked before y is pending, later dequeues can
// only remove values at dInv ≥ y, so coverage of (x, y) cannot shrink.
func (s *queueStepper) drainDeferred() StepResult {
	m := s.pendingDeq.min()
	for s.deferredHead < len(s.deferred) && s.deferred[s.deferredHead].y <= m {
		em := s.deferred[s.deferredHead]
		s.deferredHead++
		u := s.minUnmatched().eRes
		// Covered iff a merged core (matched cores plus [u, ∞) for the
		// least unmatched eRes) spans [s, e] with s ≤ x and y ≤ e.
		if u <= em.x {
			return s.fail(Violation, em.y,
				"Q4: empty deq with window (%d, %d) is covered by sure-presence core [%d, ∞) — the queue is never empty there", em.x, em.y, u)
		}
		if comp, ok := s.cores.lastStartingAtOrBefore(em.x); ok && (comp.e >= em.y || u <= comp.e) {
			return s.fail(Violation, em.y,
				"Q4: empty deq with window (%d, %d) is covered by sure-presence core [%d, %d] — the queue is never empty there", em.x, em.y, comp.s, comp.e)
		}
	}
	if s.deferredHead > 64 && s.deferredHead*2 > len(s.deferred) {
		s.deferred = s.deferred[:copy(s.deferred, s.deferred[s.deferredHead:])]
		s.deferredHead = 0
	}
	return stepOK
}

// maybeShed drops state that no future query can reach: Q2 log entries
// and cores wholly before the oldest pending invocation and oldest
// deferred empty window, and stale FIFO entries. Runs every 1024 events.
func (s *queueStepper) maybeShed() {
	if s.events-s.lastShedPass < 1024 {
		return
	}
	s.lastShedPass = s.events

	floor := s.pendingInv.min()
	// Q2 queries use x = dInv of a dequeue pending at shed time (≥ floor)
	// or invoked later (> now): drop entries with dRes < floor.
	cut := 0
	for cut < len(s.deqLog) && s.deqLog[cut].dRes < floor {
		cut++
	}
	if cut > 0 {
		s.deqBase = s.deqLog[cut-1].max
		s.shed += int64(cut)
		s.deqLog = s.deqLog[:copy(s.deqLog, s.deqLog[cut:])]
	}

	// Core queries come from deferred empty windows (known x) or future
	// ones (x ≥ floor): drop components ending before both.
	coreFloor := floor
	for i := s.deferredHead; i < len(s.deferred); i++ {
		if s.deferred[i].x < coreFloor {
			coreFloor = s.deferred[i].x
		}
	}
	s.shed += int64(s.cores.dropBefore(coreFloor))

	// Compact the unmatched FIFO when stale entries dominate.
	if len(s.unmatched) > 2*s.liveUnmatched+64 {
		live := s.unmatched[:0]
		for _, it := range s.unmatched[s.unmatchedHead:] {
			if s.isUnmatched(it) {
				live = append(live, it)
			}
		}
		s.unmatched, s.unmatchedHead = live, 0
	}
}

func (s *queueStepper) Finish() StepResult {
	if s.done != nil {
		return *s.done
	}
	if len(s.pend) > 0 {
		res := StepResult{
			Outcome: OK,
			Reason:  fmt.Sprintf("%d invocations pending at end of stream; final Q3/Q4 checks skipped", len(s.pend)),
			AtEvent: -1,
		}
		s.done = &res
		return res
	}
	// No dequeues pending: every deferred empty window is final.
	if res := s.drainDeferred(); res.Outcome != OK {
		return res
	}
	// Q3: a matched value enqueued strictly after some unmatched value's
	// enqueue completed — FIFO forces the unmatched value out first.
	if u, w := s.minUnmatched(), s.maxMatched; u.eRes < infIdx && w.eInv > u.eRes {
		return s.fail(Violation, s.lastIdx,
			"Q3: enq(%d) starts at %d, after unmatched enq(%d) completed at %d, yet %d is dequeued and %d never is",
			w.v, w.eInv, u.v, u.eRes, w.v, u.v)
	}
	res := stepOK
	s.done = &res
	return res
}

func (s *queueStepper) Stats() StepStats {
	return StepStats{
		Events:  s.events,
		Ops:     s.opsDone,
		Pending: len(s.pend),
		Resident: len(s.vals) + len(s.pend) + len(s.deqLog) + s.cores.len() +
			(len(s.unmatched) - s.unmatchedHead) + (len(s.deferred) - s.deferredHead) +
			s.pendingInv.resident() + s.pendingDeq.resident(),
		Shed:        s.shed,
		Incremental: true,
	}
}

// pendMinTracker tracks the minimum of a set of indices pushed in
// increasing order and resolved in arbitrary order. q stays sorted: a
// resolved index is overwritten in place by its complement ^i, a
// negative tombstone, found by binary search. Compaction drops
// tombstones so resident memory tracks the live set.
type pendMinTracker struct {
	q    []int
	head int
	dead int // tombstones in q[head:]
}

func (t *pendMinTracker) push(i int) { t.q = append(t.q, i) }

func (t *pendMinTracker) resolve(i int) {
	live := t.q[t.head:]
	k := sort.Search(len(live), func(k int) bool {
		x := live[k]
		if x < 0 {
			x = ^x
		}
		return x >= i
	})
	live[k] = ^i
	t.dead++
	for t.head < len(t.q) && t.q[t.head] < 0 {
		t.head++
		t.dead--
	}
	if gone := t.head + t.dead; gone > 4096 && gone*2 > len(t.q) {
		kept := t.q[:0]
		for _, x := range t.q[t.head:] {
			if x >= 0 {
				kept = append(kept, x)
			}
		}
		t.q, t.head, t.dead = kept, 0, 0
	}
}

// min returns the smallest live index, infIdx when none.
func (t *pendMinTracker) min() int {
	if t.head >= len(t.q) {
		return infIdx
	}
	return t.q[t.head]
}

func (t *pendMinTracker) resident() int { return len(t.q) - t.head }

// coreSet maintains the merged sure-presence cores as disjoint,
// non-touching components sorted by start (closed intervals; touching
// endpoints merge, matching coveredEmpty's batch merge).
type coreSet struct {
	comp []coreComp
}

type coreComp struct{ s, e int }

func (c *coreSet) len() int { return len(c.comp) }

func (c *coreSet) insert(s, e int) {
	lo := sort.Search(len(c.comp), func(i int) bool { return c.comp[i].e >= s })
	hi := sort.Search(len(c.comp), func(i int) bool { return c.comp[i].s > e })
	if lo >= hi {
		c.comp = append(c.comp, coreComp{})
		copy(c.comp[lo+1:], c.comp[lo:])
		c.comp[lo] = coreComp{s: s, e: e}
		return
	}
	ns, ne := c.comp[lo].s, c.comp[hi-1].e
	if s < ns {
		ns = s
	}
	if e > ne {
		ne = e
	}
	c.comp[lo] = coreComp{s: ns, e: ne}
	c.comp = append(c.comp[:lo+1], c.comp[hi:]...)
}

// lastStartingAtOrBefore returns the component with the largest start
// ≤ x (components are disjoint and sorted, so it also has the largest
// end among them).
func (c *coreSet) lastStartingAtOrBefore(x int) (coreComp, bool) {
	i := sort.Search(len(c.comp), func(i int) bool { return c.comp[i].s > x }) - 1
	if i < 0 {
		return coreComp{}, false
	}
	return c.comp[i], true
}

// dropBefore removes components ending before floor, returning the count.
func (c *coreSet) dropBefore(floor int) int {
	cut := 0
	for cut < len(c.comp) && c.comp[cut].e < floor {
		cut++
	}
	if cut > 0 {
		c.comp = c.comp[:copy(c.comp, c.comp[cut:])]
	}
	return cut
}
