package check

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"calgo/internal/history"
	"calgo/internal/monitor"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

const (
	objE history.ObjectID = "E"
	objS history.ObjectID = "S"
)

func inv(t history.ThreadID, o history.ObjectID, f history.Method, arg history.Value) history.Event {
	return history.Inv(t, o, f, arg)
}

func res(t history.ThreadID, o history.ObjectID, f history.Method, ret history.Value) history.Event {
	return history.Res(t, o, f, ret)
}

func fig3H1() history.History {
	return history.History{
		inv(1, objE, spec.MethodExchange, history.Int(3)),
		inv(2, objE, spec.MethodExchange, history.Int(4)),
		inv(3, objE, spec.MethodExchange, history.Int(7)),
		res(1, objE, spec.MethodExchange, history.Pair(true, 4)),
		res(2, objE, spec.MethodExchange, history.Pair(true, 3)),
		res(3, objE, spec.MethodExchange, history.Pair(false, 7)),
	}
}

func fig3H2() history.History {
	return history.History{
		inv(1, objE, spec.MethodExchange, history.Int(3)),
		inv(2, objE, spec.MethodExchange, history.Int(4)),
		res(1, objE, spec.MethodExchange, history.Pair(true, 4)),
		res(2, objE, spec.MethodExchange, history.Pair(true, 3)),
		inv(3, objE, spec.MethodExchange, history.Int(7)),
		res(3, objE, spec.MethodExchange, history.Pair(false, 7)),
	}
}

func mustCAL(t *testing.T, h history.History, sp spec.Spec, opts ...Option) Result {
	t.Helper()
	r, err := CAL(context.Background(), h, sp, opts...)
	if err != nil {
		t.Fatalf("CAL: %v", err)
	}
	return r
}

func TestCALFig3Histories(t *testing.T) {
	e := spec.NewExchanger(objE)
	for name, h := range map[string]history.History{"H1": fig3H1(), "H2": fig3H2()} {
		r := mustCAL(t, h, e)
		if !r.OK {
			t.Errorf("%s should be CA-linearizable: %s", name, r.Reason)
			continue
		}
		// The witness must be admitted by the spec and agreed with by the
		// history.
		if _, err := spec.Accepts(e, r.Witness); err != nil {
			t.Errorf("%s witness rejected by spec: %v", name, err)
		}
		if err := trace.Agrees(h, r.Witness); err != nil {
			t.Errorf("%s does not agree with its own witness: %v", name, err)
		}
	}
}

func TestCALRejectsBadExchanges(t *testing.T) {
	e := spec.NewExchanger(objE)
	tests := []struct {
		name string
		h    history.History
	}{
		{"lone successful exchange", history.History{
			inv(1, objE, spec.MethodExchange, history.Int(3)),
			res(1, objE, spec.MethodExchange, history.Pair(true, 4)),
		}},
		{"non-overlapping swap", history.History{
			inv(1, objE, spec.MethodExchange, history.Int(3)),
			res(1, objE, spec.MethodExchange, history.Pair(true, 4)),
			inv(2, objE, spec.MethodExchange, history.Int(4)),
			res(2, objE, spec.MethodExchange, history.Pair(true, 3)),
		}},
		{"values do not cross", history.History{
			inv(1, objE, spec.MethodExchange, history.Int(3)),
			inv(2, objE, spec.MethodExchange, history.Int(4)),
			res(1, objE, spec.MethodExchange, history.Pair(true, 9)),
			res(2, objE, spec.MethodExchange, history.Pair(true, 3)),
		}},
		{"failed exchange wrong value", history.History{
			inv(1, objE, spec.MethodExchange, history.Int(3)),
			res(1, objE, spec.MethodExchange, history.Pair(false, 5)),
		}},
		{"three-way swap", history.History{
			inv(1, objE, spec.MethodExchange, history.Int(1)),
			inv(2, objE, spec.MethodExchange, history.Int(2)),
			inv(3, objE, spec.MethodExchange, history.Int(3)),
			res(1, objE, spec.MethodExchange, history.Pair(true, 2)),
			res(2, objE, spec.MethodExchange, history.Pair(true, 3)),
			res(3, objE, spec.MethodExchange, history.Pair(true, 1)),
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := mustCAL(t, tt.h, spec.NewExchanger(objE))
			if r.OK {
				t.Errorf("history should not be CA-linearizable:\n%v\nwitness: %s", tt.h, r.Witness)
			}
			if r.Reason == "" {
				t.Error("failed result must carry a reason")
			}
			_ = e
		})
	}
}

// TestSequentialSpecCannotExplainSwaps is the paper's §3 impossibility made
// executable: under classical linearizability (singleton elements only),
// the very histories the exchanger is designed to produce are rejected.
func TestSequentialSpecCannotExplainSwaps(t *testing.T) {
	e := spec.NewExchanger(objE)
	for name, h := range map[string]history.History{"H1": fig3H1(), "H2": fig3H2()} {
		r, err := Linearizable(context.Background(), h, e)
		if err != nil {
			t.Fatalf("Linearizable(%s): %v", name, err)
		}
		if r.OK {
			t.Errorf("%s must NOT be linearizable under a sequential reading; witness: %s", name, r.Witness)
		}
	}
	// Only all-fail histories survive a sequential reading.
	allFail := history.History{
		inv(1, objE, spec.MethodExchange, history.Int(3)),
		inv(2, objE, spec.MethodExchange, history.Int(4)),
		res(1, objE, spec.MethodExchange, history.Pair(false, 3)),
		res(2, objE, spec.MethodExchange, history.Pair(false, 4)),
	}
	r, err := Linearizable(context.Background(), allFail, e)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Errorf("all-fail history should be linearizable sequentially: %s", r.Reason)
	}
}

func TestCALEqualsSetLinearizable(t *testing.T) {
	h := fig3H1()
	a := mustCAL(t, h, spec.NewExchanger(objE))
	b, err := SetLinearizable(context.Background(), h, spec.NewExchanger(objE))
	if err != nil {
		t.Fatal(err)
	}
	if a.OK != b.OK {
		t.Error("CAL and SetLinearizable must agree")
	}
}

func TestCALStackHistories(t *testing.T) {
	st := spec.NewStack(objS)
	// Two overlapping pushes then two pops; both interleavings of the
	// pushes are possible, the pops pin down which one happened.
	h := history.History{
		inv(1, objS, spec.MethodPush, history.Int(10)),
		inv(2, objS, spec.MethodPush, history.Int(20)),
		res(1, objS, spec.MethodPush, history.Bool(true)),
		res(2, objS, spec.MethodPush, history.Bool(true)),
		inv(1, objS, spec.MethodPop, history.Unit()),
		res(1, objS, spec.MethodPop, history.Pair(true, 10)),
		inv(1, objS, spec.MethodPop, history.Unit()),
		res(1, objS, spec.MethodPop, history.Pair(true, 20)),
	}
	r := mustCAL(t, h, st)
	if !r.OK {
		t.Fatalf("stack history should be linearizable: %s", r.Reason)
	}
	// The witness must linearize push(20) before push(10).
	want := trace.Trace{
		spec.PushElement(objS, 2, 20, true),
		spec.PushElement(objS, 1, 10, true),
		spec.PopElement(objS, 1, true, 10),
		spec.PopElement(objS, 1, true, 20),
	}
	if !r.Witness.Equal(want) {
		t.Errorf("witness = %s, want %s", r.Witness, want)
	}

	// LIFO violation: non-overlapping pushes popped in FIFO order.
	bad := history.History{
		inv(1, objS, spec.MethodPush, history.Int(10)),
		res(1, objS, spec.MethodPush, history.Bool(true)),
		inv(1, objS, spec.MethodPush, history.Int(20)),
		res(1, objS, spec.MethodPush, history.Bool(true)),
		inv(1, objS, spec.MethodPop, history.Unit()),
		res(1, objS, spec.MethodPop, history.Pair(true, 10)),
	}
	if r := mustCAL(t, bad, st); r.OK {
		t.Error("FIFO pop order on a stack must be rejected")
	}
}

func TestCALPendingCompletion(t *testing.T) {
	e := spec.NewExchanger(objE)
	// t1 returned a successful swap with value 4, but t2 (who offered 4)
	// never responded: the checker must complete t2's operation.
	h := history.History{
		inv(1, objE, spec.MethodExchange, history.Int(3)),
		inv(2, objE, spec.MethodExchange, history.Int(4)),
		res(1, objE, spec.MethodExchange, history.Pair(true, 4)),
	}
	r := mustCAL(t, h, e)
	if !r.OK {
		t.Fatalf("pending partner should be completable: %s", r.Reason)
	}
	if len(r.Dropped) != 0 {
		t.Errorf("t2 should be completed, not dropped: %v", r.Dropped)
	}
	if len(r.Witness) != 1 || r.Witness[0].Size() != 2 {
		t.Errorf("witness should be a single swap element: %s", r.Witness)
	}
}

func TestCALPendingDrop(t *testing.T) {
	e := spec.NewExchanger(objE)
	// A pending exchange that took no visible effect can be dropped.
	h := history.History{
		inv(1, objE, spec.MethodExchange, history.Int(3)),
	}
	r := mustCAL(t, h, e)
	if !r.OK {
		t.Fatalf("lone pending exchange should be CA-linearizable: %s", r.Reason)
	}
	if len(r.Dropped) != 1 {
		t.Errorf("expected the pending op to be dropped (or completed), got %v", r.Dropped)
	}
}

func TestCALPendingMustBeLinearized(t *testing.T) {
	st := spec.NewStack(objS)
	// The push never responded, but its value was popped: the completion
	// must extend the push, not drop it.
	h := history.History{
		inv(1, objS, spec.MethodPush, history.Int(42)),
		inv(2, objS, spec.MethodPop, history.Unit()),
		res(2, objS, spec.MethodPop, history.Pair(true, 42)),
	}
	r := mustCAL(t, h, st)
	if !r.OK {
		t.Fatalf("pending push must be completable: %s", r.Reason)
	}
	if len(r.Witness) != 2 {
		t.Errorf("witness should linearize push then pop: %s", r.Witness)
	}
	if len(r.Dropped) != 0 {
		t.Errorf("push must not be dropped: %v", r.Dropped)
	}
}

func TestCALCompleteOnly(t *testing.T) {
	h := history.History{inv(1, objE, spec.MethodExchange, history.Int(3))}
	_, err := CAL(context.Background(), h, spec.NewExchanger(objE), WithCompleteOnly())
	if err == nil || !strings.Contains(err.Error(), "pending") {
		t.Errorf("WithCompleteOnly should reject pending histories: %v", err)
	}
}

func TestCALIllFormed(t *testing.T) {
	h := history.History{res(1, objE, spec.MethodExchange, history.Int(3))}
	if _, err := CAL(context.Background(), h, spec.NewExchanger(objE)); err == nil {
		t.Error("ill-formed history must be an input error")
	}
}

func TestCALStateBound(t *testing.T) {
	h := fig3H1()
	r, err := CAL(context.Background(), h, spec.NewExchanger(objE), WithMaxStates(1))
	if err != nil {
		t.Fatalf("budget exhaustion must not be an error: %v", err)
	}
	if r.Verdict != Unknown || r.OK {
		t.Fatalf("verdict = %v (OK=%v), want Unknown", r.Verdict, r.OK)
	}
	if r.Unknown == nil || !errors.Is(r.Unknown.Cause, ErrBound) {
		t.Errorf("Unknown cause = %+v, want ErrBound", r.Unknown)
	}
	if r.Unknown != nil && r.Unknown.Frontier.TotalOps != len(h.Operations()) {
		t.Errorf("frontier TotalOps = %d, want %d", r.Unknown.Frontier.TotalOps, len(h.Operations()))
	}
}

func TestCALBadElementCap(t *testing.T) {
	if _, err := CAL(context.Background(), history.History{}, spec.NewExchanger(objE), WithElementCap(-1)); err == nil {
		t.Error("negative element cap must be rejected")
	}
}

func TestCALEmptyHistory(t *testing.T) {
	r := mustCAL(t, history.History{}, spec.NewExchanger(objE))
	if !r.OK || len(r.Witness) != 0 {
		t.Errorf("empty history: %+v", r)
	}
}

func TestCALMemoAblationAgrees(t *testing.T) {
	// With and without memoization the verdict must be identical.
	for _, h := range []history.History{fig3H1(), fig3H2()} {
		a := mustCAL(t, h, spec.NewExchanger(objE))
		b := mustCAL(t, h, spec.NewExchanger(objE), WithoutMemo())
		if a.OK != b.OK {
			t.Errorf("memo ablation changed verdict: %v vs %v", a.OK, b.OK)
		}
		if b.MemoHits != 0 {
			t.Error("memo disabled but hits recorded")
		}
	}
}

func TestCALProductHistory(t *testing.T) {
	p := spec.MustProduct(spec.NewStack(objS), spec.NewExchanger(objE))
	h := history.History{
		inv(1, objS, spec.MethodPush, history.Int(5)),
		inv(2, objE, spec.MethodExchange, history.Int(1)),
		inv(3, objE, spec.MethodExchange, history.Int(2)),
		res(1, objS, spec.MethodPush, history.Bool(true)),
		res(2, objE, spec.MethodExchange, history.Pair(true, 2)),
		res(3, objE, spec.MethodExchange, history.Pair(true, 1)),
		inv(1, objS, spec.MethodPop, history.Unit()),
		res(1, objS, spec.MethodPop, history.Pair(true, 5)),
	}
	r := mustCAL(t, h, p)
	if !r.OK {
		t.Fatalf("product history should be CA-linearizable: %s", r.Reason)
	}
}

func TestCALWitnessInvariants(t *testing.T) {
	// For any accepting run, the witness must be spec-admitted and agreed
	// with by the completed history (soundness of the checker).
	e := spec.NewExchanger(objE)
	h := fig3H2()
	r := mustCAL(t, h, e)
	if !r.OK {
		t.Fatal(r.Reason)
	}
	if _, err := spec.Accepts(e, r.Witness); err != nil {
		t.Errorf("witness not admitted: %v", err)
	}
	if err := trace.Agrees(h, r.Witness); err != nil {
		t.Errorf("history does not agree with witness: %v", err)
	}
	if r.States == 0 {
		t.Error("search should visit at least one state")
	}
}

// bytesPerRun is the heap allocated per call of fn, averaged over runs.
func bytesPerRun(runs int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDFSReadySnapshotsShareOneStack pins the memory of a DFS check.
// Every search depth pushes its ready set, and a deep search over a
// narrow history must keep those sets on one stack, not in a buffer of
// len(ops) per depth; and the ready sets come from one head per thread,
// so no n×n real-time order is built. At n = 2,000 ops the whole check
// must allocate less than n² bytes, the size of that bool matrix alone.
func TestDFSReadySnapshotsShareOneStack(t *testing.T) {
	h := monitor.GenQueue(2000, 4, 1, "q")
	c, err := NewChecker(spec.NewQueue("q"), WithEngine(EngineDFS))
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(h.Operations()))
	perCheck := bytesPerRun(2, func() {
		res, err := c.Check(context.Background(), h)
		if err != nil || res.Verdict != Sat {
			t.Fatalf("Check = %v, %v; want Sat", res.Verdict, err)
		}
	})
	if bound := n * n; perCheck >= bound {
		t.Fatalf("a %d-op DFS check allocates %d B; want < %d B", n, perCheck, bound)
	}
}
