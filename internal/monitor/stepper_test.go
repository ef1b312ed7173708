package monitor

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"calgo/internal/history"
	"calgo/internal/spec"
)

// runStepper feeds h event-by-event and returns the first sticky non-OK
// result, or the Finish result.
func runStepper(t *testing.T, sp spec.Spec, h history.History) StepResult {
	t.Helper()
	st, err := NewStepper(sp, 64)
	if err != nil {
		t.Fatalf("NewStepper: %v", err)
	}
	for i, ev := range h {
		if r := st.Advance(ev, i); r.Outcome != OK {
			return r
		}
	}
	return st.Finish()
}

// agreeWithBatch cross-validates the stepper's final outcome on a
// complete history against a reference: the batch monitor, or for the
// queue, whose batch monitor is the stepper itself, refQueue.
// Inconclusive means the stepper punted to the general checker, so
// any reference outcome is acceptable there; every other outcome must
// match exactly.
func agreeWithBatch(t *testing.T, sp spec.Spec, h history.History, label string) {
	t.Helper()
	sr := runStepper(t, sp, h)
	if sr.Outcome == Inconclusive {
		return
	}
	var ref Outcome
	var why string
	if SpecKind(sp) == KindQueue {
		var found map[string]bool
		ref, found = refQueue(h.Operations())
		why = fmt.Sprint(found)
	} else {
		br := Check(h, sp)
		ref, why = br.Outcome, br.Reason
	}
	if sr.Outcome != ref {
		t.Fatalf("%s: stepper %s (%s at %d) but reference %s (%s)",
			label, sr.Outcome, sr.Reason, sr.AtEvent, ref, why)
	}
}

// refQueue decides a complete queue history straight from the
// definitions of Q0–Q4 in queueStepper's doc, with no sorting, sweeping
// or shedding: Q2 and Q3 pair by pair, Q4 point by point on doubled
// coordinates (position 2i is event index i, 2i+1 the open gap
// (i, i+1)). It is quadratic and serves only as the queue stepper's
// reference. found names every pattern present, plus "F" for a failed
// deq other than (false,0), "shape" for a malformed operation (then
// skipped) and "dup-enq"/"dup-deq" for a value enqueued or dequeued
// twice (the patterns then read each value's first operations).
// Malformed shapes and duplicates make the history Ineligible;
// otherwise it is a Violation iff found is not empty.
func refQueue(ops []history.Op) (Outcome, map[string]bool) {
	type rv struct{ enq, deq *history.Op }
	vals := map[int64]*rv{}
	val := func(v int64) *rv {
		if vals[v] == nil {
			vals[v] = &rv{}
		}
		return vals[v]
	}
	found := map[string]bool{}
	var empties []*history.Op
	for i := range ops {
		op := &ops[i]
		switch {
		case op.Method == spec.MethodEnq && op.Arg.Kind == history.KindInt && op.Ret == history.Bool(true):
			if r := val(op.Arg.N); r.enq == nil {
				r.enq = op
			} else {
				found["dup-enq"] = true
			}
		case op.Method == spec.MethodDeq && op.Arg.Kind == history.KindUnit && op.Ret.Kind == history.KindPair:
			switch {
			case op.Ret.B:
				if r := val(op.Ret.N); r.deq == nil {
					r.deq = op
				} else {
					found["dup-deq"] = true
				}
			case op.Ret.N == 0:
				empties = append(empties, op)
			default:
				found["F"] = true
			}
		default:
			found["shape"] = true
		}
	}
	// cores are the closed sure-presence intervals [eRes, dInv], with
	// e = infIdx for values never dequeued.
	var cores [][2]int
	for _, u := range vals {
		switch {
		case u.enq == nil:
			found["Q0"] = true
		case u.deq == nil:
			cores = append(cores, [2]int{u.enq.ResIndex, infIdx})
		case u.enq.InvIndex > u.deq.ResIndex:
			found["Q1"] = true
		case u.enq.ResIndex < u.deq.InvIndex:
			cores = append(cores, [2]int{u.enq.ResIndex, u.deq.InvIndex})
		}
		for _, w := range vals {
			if u == w || u.enq == nil || w.enq == nil || w.deq == nil {
				continue
			}
			if u.deq != nil && u.enq.ResIndex <= w.enq.InvIndex && w.deq.ResIndex <= u.deq.InvIndex {
				found["Q2"] = true
			}
			if u.deq == nil && w.enq.InvIndex > u.enq.ResIndex {
				found["Q3"] = true
			}
		}
	}
	for _, em := range empties {
		covered := true
		for p := 2*em.InvIndex + 1; p <= 2*em.ResIndex-1 && covered; p++ {
			covered = false
			for _, c := range cores {
				if 2*c[0] <= p && (c[1] == infIdx || p <= 2*c[1]) {
					covered = true
					break
				}
			}
		}
		if covered {
			found["Q4"] = true
		}
	}
	switch {
	case found["shape"] || found["dup-enq"] || found["dup-deq"]:
		return Ineligible, found
	case len(found) > 0:
		return Violation, found
	}
	return OK, found
}

// mutateDeqFresh rewrites one successful removal-style response to return
// a value never inserted (a Q0-style defect for every collection kind).
func mutateDeqFresh(h history.History, seed int64) (history.History, bool) {
	rng := rand.New(rand.NewSource(seed))
	var idxs []int
	for i, ev := range h {
		if ev.Kind == history.Respond && ev.Ret.Kind == history.KindPair && ev.Ret.B {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return h, false
	}
	m := append(history.History(nil), h...)
	i := idxs[rng.Intn(len(idxs))]
	m[i].Ret = history.Pair(true, 1<<40+rng.Int63n(1<<20))
	return m, true
}

// mutateDeqEmpty rewrites one successful removal-style response to claim
// the object was empty.
func mutateDeqEmpty(h history.History, seed int64) (history.History, bool) {
	rng := rand.New(rand.NewSource(seed))
	var idxs []int
	for i, ev := range h {
		if ev.Kind == history.Respond && ev.Ret.Kind == history.KindPair && ev.Ret.B {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return h, false
	}
	m := append(history.History(nil), h...)
	i := idxs[rng.Intn(len(idxs))]
	m[i].Ret = history.Pair(false, 0)
	return m, true
}

// TestStepperMatchesBatch cross-validates every stepper kind against its
// reference (see agreeWithBatch) on generated histories, pristine and
// with injected defects.
func TestStepperMatchesBatch(t *testing.T) {
	kinds := []struct {
		name string
		sp   spec.Spec
		gen  func(nOps, threads int, seed int64, obj history.ObjectID) history.History
	}{
		{"queue", spec.NewQueue("q"), GenQueue},
		{"stack", spec.NewStack("s"), GenStack},
		{"set", spec.NewSet("st"), GenSet},
		{"pqueue", spec.NewPQueue("pq"), GenPQueue},
	}
	for _, k := range kinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			obj := k.sp.Object()
			for seed := int64(0); seed < 25; seed++ {
				for _, threads := range []int{1, 3, 7} {
					h := k.gen(120, threads, seed, obj)
					label := fmt.Sprintf("%s seed=%d threads=%d", k.name, seed, threads)
					agreeWithBatch(t, k.sp, h, label)
					if m, ok := mutateDeqFresh(h, seed); ok {
						agreeWithBatch(t, k.sp, m, label+" fresh-value defect")
					}
					if m, ok := mutateDeqEmpty(h, seed); ok {
						agreeWithBatch(t, k.sp, m, label+" spurious-empty defect")
					}
				}
			}
		})
	}
}

// mkEvents assembles a history from (kind, thread, method, value) rows;
// negative v means unit arg / (false,0) ret, and for responses of
// insert-style methods the ret is true.
type evRow struct {
	inv    bool
	thread history.ThreadID
	method history.Method
	arg    history.Value
	ret    history.Value
}

func buildH(rows []evRow) history.History {
	h := make(history.History, 0, len(rows))
	for _, r := range rows {
		if r.inv {
			h = append(h, history.Inv(r.thread, "q", r.method, r.arg))
		} else {
			h = append(h, history.Res(r.thread, "q", r.method, r.ret))
		}
	}
	return h
}

func TestQueueStepperQ0AtExactEvent(t *testing.T) {
	// deq ▷ 5 completes before enq(5) is invoked: the violation is known
	// at the dequeue's response, event 1.
	h := buildH([]evRow{
		{inv: true, thread: 1, method: spec.MethodDeq, arg: history.Unit()},
		{thread: 1, method: spec.MethodDeq, ret: history.Pair(true, 5)},
		{inv: true, thread: 2, method: spec.MethodEnq, arg: history.Int(5)},
		{thread: 2, method: spec.MethodEnq, ret: history.Bool(true)},
	})
	st, _ := NewStepper(spec.NewQueue("q"), 0)
	r := st.Advance(h[0], 0)
	if r.Outcome != OK {
		t.Fatalf("event 0: %v", r)
	}
	r = st.Advance(h[1], 1)
	if r.Outcome != Violation || r.AtEvent != 1 {
		t.Fatalf("want violation at event 1, got %s at %d (%s)", r.Outcome, r.AtEvent, r.Reason)
	}
	// Sticky afterwards.
	if r2 := st.Advance(h[2], 2); r2 != r {
		t.Fatalf("sticky violation lost: %v", r2)
	}
	// Batch agrees on the whole history.
	if br := Check(h, spec.NewQueue("q")); br.Outcome != Violation {
		t.Fatalf("batch: %s (%s)", br.Outcome, br.Reason)
	}
}

func TestQueueStepperQ0AfterShed(t *testing.T) {
	// A second deq ▷ 1 after 1's record was shed: the stepper no longer
	// knows when enq(1) was invoked, only that no enqueue of 1 is
	// outstanding, and its reason says just that.
	h := buildH([]evRow{
		{inv: true, thread: 1, method: spec.MethodEnq, arg: history.Int(1)},
		{thread: 1, method: spec.MethodEnq, ret: history.Bool(true)},
		{inv: true, thread: 1, method: spec.MethodDeq, arg: history.Unit()},
		{thread: 1, method: spec.MethodDeq, ret: history.Pair(true, 1)},
		{inv: true, thread: 1, method: spec.MethodDeq, arg: history.Unit()},
		{thread: 1, method: spec.MethodDeq, ret: history.Pair(true, 1)},
	})
	r := runStepper(t, spec.NewQueue("q"), h)
	const want = "Q0: deq ▷ 1 completes at 5 but no enqueue of 1 is outstanding"
	if r.Outcome != Violation || r.AtEvent != 5 || r.Reason != want {
		t.Fatalf("got %s at %d (%q), want violation at 5 (%q)", r.Outcome, r.AtEvent, r.Reason, want)
	}
}

func TestQueueStepperPendingEnqMatch(t *testing.T) {
	// deq ▷ 5 completes while enq(5) is still pending: legal (the enqueue
	// linearizes early).
	h := buildH([]evRow{
		{inv: true, thread: 1, method: spec.MethodEnq, arg: history.Int(5)},
		{inv: true, thread: 2, method: spec.MethodDeq, arg: history.Unit()},
		{thread: 2, method: spec.MethodDeq, ret: history.Pair(true, 5)},
		{thread: 1, method: spec.MethodEnq, ret: history.Bool(true)},
	})
	if r := runStepper(t, spec.NewQueue("q"), h); r.Outcome != OK {
		t.Fatalf("want ok, got %s (%s)", r.Outcome, r.Reason)
	}
}

func TestQueueStepperQ2AtExactEvent(t *testing.T) {
	// enq(1) before enq(2), but 2 dequeued entirely before 1's dequeue
	// starts: FIFO inversion, known at the second dequeue's response.
	h := buildH([]evRow{
		{inv: true, thread: 1, method: spec.MethodEnq, arg: history.Int(1)},
		{thread: 1, method: spec.MethodEnq, ret: history.Bool(true)},
		{inv: true, thread: 2, method: spec.MethodEnq, arg: history.Int(2)},
		{thread: 2, method: spec.MethodEnq, ret: history.Bool(true)},
		{inv: true, thread: 1, method: spec.MethodDeq, arg: history.Unit()},
		{thread: 1, method: spec.MethodDeq, ret: history.Pair(true, 2)},
		{inv: true, thread: 2, method: spec.MethodDeq, arg: history.Unit()},
		{thread: 2, method: spec.MethodDeq, ret: history.Pair(true, 1)},
	})
	st, _ := NewStepper(spec.NewQueue("q"), 0)
	var r StepResult
	for i, ev := range h {
		r = st.Advance(ev, i)
		if r.Outcome != OK && i < 7 {
			t.Fatalf("premature non-OK at %d: %v", i, r)
		}
	}
	if r.Outcome != Violation || r.AtEvent != 7 {
		t.Fatalf("want Q2 violation at event 7, got %s at %d (%s)", r.Outcome, r.AtEvent, r.Reason)
	}
}

func TestQueueStepperQ3AtFinish(t *testing.T) {
	// Value 1's enqueue completes, then value 2 is enqueued and dequeued
	// while 1 never is: FIFO forces 1 out first. Only decidable at the
	// end of the stream.
	h := buildH([]evRow{
		{inv: true, thread: 1, method: spec.MethodEnq, arg: history.Int(1)},
		{thread: 1, method: spec.MethodEnq, ret: history.Bool(true)},
		{inv: true, thread: 1, method: spec.MethodEnq, arg: history.Int(2)},
		{thread: 1, method: spec.MethodEnq, ret: history.Bool(true)},
		{inv: true, thread: 1, method: spec.MethodDeq, arg: history.Unit()},
		{thread: 1, method: spec.MethodDeq, ret: history.Pair(true, 2)},
	})
	st, _ := NewStepper(spec.NewQueue("q"), 0)
	for i, ev := range h {
		if r := st.Advance(ev, i); r.Outcome != OK {
			t.Fatalf("event %d: %v", i, r)
		}
	}
	if r := st.Finish(); r.Outcome != Violation {
		t.Fatalf("want Q3 at finish, got %s (%s)", r.Outcome, r.Reason)
	}
}

func TestQueueStepperQ4Deferred(t *testing.T) {
	// An empty dequeue overlapping a pending dequeue must not be judged
	// early: the pending dequeue later removes value 1 with dInv before
	// the empty window, so the queue really could be empty there.
	ok := buildH([]evRow{
		{inv: true, thread: 1, method: spec.MethodEnq, arg: history.Int(1)},
		{thread: 1, method: spec.MethodEnq, ret: history.Bool(true)},
		{inv: true, thread: 2, method: spec.MethodDeq, arg: history.Unit()},
		{inv: true, thread: 3, method: spec.MethodDeq, arg: history.Unit()},
		{thread: 3, method: spec.MethodDeq, ret: history.Pair(false, 0)},
		{thread: 2, method: spec.MethodDeq, ret: history.Pair(true, 1)},
	})
	if r := runStepper(t, spec.NewQueue("q"), ok); r.Outcome != OK {
		t.Fatalf("deferred empty wrongly judged: %s (%s)", r.Outcome, r.Reason)
	}
	if br := Check(ok, spec.NewQueue("q")); br.Outcome != OK {
		t.Fatalf("batch disagrees: %s (%s)", br.Outcome, br.Reason)
	}

	// Covered variant: value 2's enqueue completes before the empty
	// window opens and 2 is never dequeued, so the queue is provably
	// nonempty throughout the window.
	bad := buildH([]evRow{
		{inv: true, thread: 1, method: spec.MethodEnq, arg: history.Int(1)},
		{thread: 1, method: spec.MethodEnq, ret: history.Bool(true)},
		{inv: true, thread: 4, method: spec.MethodEnq, arg: history.Int(2)},
		{thread: 4, method: spec.MethodEnq, ret: history.Bool(true)},
		{inv: true, thread: 2, method: spec.MethodDeq, arg: history.Unit()},
		{inv: true, thread: 3, method: spec.MethodDeq, arg: history.Unit()},
		{thread: 3, method: spec.MethodDeq, ret: history.Pair(false, 0)},
		{thread: 2, method: spec.MethodDeq, ret: history.Pair(true, 1)},
	})
	r := runStepper(t, spec.NewQueue("q"), bad)
	if r.Outcome != Violation || r.AtEvent != 6 {
		t.Fatalf("want Q4 violation at event 6, got %s at %d (%s)", r.Outcome, r.AtEvent, r.Reason)
	}
	if br := Check(bad, spec.NewQueue("q")); br.Outcome != Violation {
		t.Fatalf("batch disagrees: %s (%s)", br.Outcome, br.Reason)
	}
}

func TestQueueStepperShedsDecidedState(t *testing.T) {
	// A balanced long stream must shed decided values: resident state
	// tracks the live window, not the stream length.
	st, _ := NewStepper(spec.NewQueue("q"), 0)
	idx := 0
	feed := func(ev history.Event) {
		t.Helper()
		if r := st.Advance(ev, idx); r.Outcome != OK {
			t.Fatalf("event %d: %s (%s)", idx, r.Outcome, r.Reason)
		}
		idx++
	}
	const n = 100_000
	for v := int64(0); v < n; v++ {
		feed(history.Inv(1, "q", spec.MethodEnq, history.Int(v)))
		feed(history.Res(1, "q", spec.MethodEnq, history.Bool(true)))
		feed(history.Inv(2, "q", spec.MethodDeq, history.Unit()))
		feed(history.Res(2, "q", spec.MethodDeq, history.Pair(true, v)))
	}
	stats := st.Stats()
	if stats.Shed == 0 {
		t.Fatal("no state shed on a fully decided stream")
	}
	if stats.Resident > 4096 {
		t.Fatalf("resident state %d not bounded (events=%d, shed=%d)", stats.Resident, stats.Events, stats.Shed)
	}
	if r := st.Finish(); r.Outcome != OK {
		t.Fatalf("finish: %s (%s)", r.Outcome, r.Reason)
	}
}

func TestPendMinTrackerStuckHead(t *testing.T) {
	// One operation stays pending while 100k later ones resolve in
	// random order: the minimum stays put, and compaction keeps the
	// tracker's footprint near the live set rather than the stream.
	var tr pendMinTracker
	rng := rand.New(rand.NewSource(1))
	tr.push(0)
	var live []int
	for i := 1; i <= 100_000; i++ {
		tr.push(i)
		live = append(live, i)
		if len(live) > 8 {
			j := rng.Intn(len(live))
			tr.resolve(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if m := tr.min(); m != 0 {
			t.Fatalf("after push %d: min = %d, want the stuck 0", i, m)
		}
		if r := tr.resident(); r > 2*(4096+len(live)+1) {
			t.Fatalf("after push %d: resident %d for %d live indices", i, r, len(live)+1)
		}
	}
	tr.resolve(0)
	sort.Ints(live)
	if m := tr.min(); m != live[0] {
		t.Fatalf("min = %d after the stuck index resolved, want %d", m, live[0])
	}
	for _, i := range live {
		tr.resolve(i)
	}
	if m := tr.min(); m != infIdx {
		t.Fatalf("min = %d with nothing pending, want infIdx", m)
	}
}

func TestStepperIncompleteFinishSkipsFinalChecks(t *testing.T) {
	// An unmatched value plus a *pending* dequeue: Q3 cannot be judged —
	// the pending dequeue may yet remove the unmatched value.
	h := buildH([]evRow{
		{inv: true, thread: 1, method: spec.MethodEnq, arg: history.Int(1)},
		{thread: 1, method: spec.MethodEnq, ret: history.Bool(true)},
		{inv: true, thread: 1, method: spec.MethodEnq, arg: history.Int(2)},
		{thread: 1, method: spec.MethodEnq, ret: history.Bool(true)},
		{inv: true, thread: 1, method: spec.MethodDeq, arg: history.Unit()},
		{thread: 1, method: spec.MethodDeq, ret: history.Pair(true, 2)},
		{inv: true, thread: 2, method: spec.MethodDeq, arg: history.Unit()},
	})
	st, _ := NewStepper(spec.NewQueue("q"), 0)
	for i, ev := range h {
		if r := st.Advance(ev, i); r.Outcome != OK {
			t.Fatalf("event %d: %v", i, r)
		}
	}
	r := st.Finish()
	if r.Outcome != OK || r.Reason == "" {
		t.Fatalf("want annotated OK on incomplete finish, got %s (%q)", r.Outcome, r.Reason)
	}
}
