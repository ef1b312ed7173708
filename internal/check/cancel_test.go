package check

import (
	"context"
	"errors"
	"testing"
	"time"

	"calgo/internal/history"
	"calgo/internal/spec"
)

const objIS history.ObjectID = "IS"

// adversarialSnapshotHistory builds a history of m pairwise-concurrent
// update operations that all claim a view of cardinality target. With
// target > m no subset of them can ever satisfy the snapshot spec's
// cardinality equation, so the checker must enumerate all 2^m - 1 nonempty
// subsets at a single search node before concluding Unsat — the worst case
// for any per-node-only cancellation check.
func adversarialSnapshotHistory(m, target int) history.History {
	var h history.History
	for i := 1; i <= m; i++ {
		h = append(h, inv(history.ThreadID(i), objIS, spec.MethodUpdate, history.Int(int64(i))))
	}
	for i := 1; i <= m; i++ {
		h = append(h, res(history.ThreadID(i), objIS, spec.MethodUpdate, history.Pair(true, int64(target))))
	}
	return h
}

func TestCALDeadline(t *testing.T) {
	const m = 22
	h := adversarialSnapshotHistory(m, m+1)
	sp := spec.NewSnapshot(objIS, m+1)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	r, err := CAL(ctx, h, sp)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline expiry must not be an error: %v", err)
	}
	if r.Verdict != Unknown {
		t.Fatalf("verdict = %v, want Unknown (elapsed %v)", r.Verdict, elapsed)
	}
	if !errors.Is(r.Unknown.Cause, context.DeadlineExceeded) {
		t.Errorf("cause = %v, want DeadlineExceeded", r.Unknown.Cause)
	}
	// The search must notice the deadline *inside* the exponential subset
	// enumeration, not only between search nodes — the whole enumeration
	// happens at one node here.
	if elapsed > 5*time.Second {
		t.Errorf("took %v to honour a 100ms deadline", elapsed)
	}
	if r.Unknown.Frontier.Elements == 0 {
		t.Error("frontier should count element attempts")
	}
	if r.Unknown.Frontier.TotalOps != m {
		t.Errorf("frontier TotalOps = %d, want %d", r.Unknown.Frontier.TotalOps, m)
	}
}

func TestCALCancelMidSearch(t *testing.T) {
	const m = 24
	h := adversarialSnapshotHistory(m, m+1)
	sp := spec.NewSnapshot(objIS, m+1)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	go func() {
		r, err := CAL(ctx, h, sp)
		if err != nil {
			t.Errorf("cancellation must not be an error: %v", err)
		}
		done <- r
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if r.Verdict != Unknown || !errors.Is(r.Unknown.Cause, context.Canceled) {
			t.Errorf("verdict = %v, cause = %+v; want Unknown/Canceled", r.Verdict, r.Unknown)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("checker did not honour cancellation")
	}
}

func TestCALNilContext(t *testing.T) {
	r, err := CAL(nil, fig3H1(), spec.NewExchanger(objE)) //nolint:staticcheck // nil ctx is explicitly supported
	if err != nil || !r.OK || r.Verdict != Sat {
		t.Errorf("nil context must behave like Background: r=%+v err=%v", r, err)
	}
}

func TestCALMemoBudget(t *testing.T) {
	// An unpaired successful exchange is Unsat; the root node fails and
	// would be memoized, tripping a 1-byte memo budget.
	h := history.History{
		inv(1, objE, spec.MethodExchange, history.Int(3)),
		res(1, objE, spec.MethodExchange, history.Pair(true, 4)),
	}
	r, err := CAL(context.Background(), h, spec.NewExchanger(objE), WithMemoBudget(1))
	if err != nil {
		t.Fatalf("memo budget exhaustion must not be an error: %v", err)
	}
	if r.Verdict != Unknown || !errors.Is(r.Unknown.Cause, ErrMemoBudget) {
		t.Errorf("verdict = %v, Unknown = %+v; want Unknown/ErrMemoBudget", r.Verdict, r.Unknown)
	}
	// The same history with an ample budget is a clean Unsat.
	r2, err := CAL(context.Background(), h, spec.NewExchanger(objE), WithMemoBudget(1<<20))
	if err != nil || r2.Verdict != Unsat {
		t.Errorf("ample budget: verdict = %v, err = %v; want Unsat", r2.Verdict, err)
	}
}

// TestCALMemoBudgetLongChain charges each memoized node for its own key
// only: a node's key holds one head per thread, not a mask of every
// operation. One thread's chain of n failing exchanges, the last one
// claiming a partner it never had, memoizes all n nodes on the way back,
// and while each key costs a few bytes plus the per-entry overhead the
// whole chain fits in 100 bytes per operation.
func TestCALMemoBudgetLongChain(t *testing.T) {
	const n = 4096
	var h history.History
	for i := 0; i < n; i++ {
		ret := history.Pair(false, int64(i))
		if i == n-1 {
			ret = history.Pair(true, 99)
		}
		h = append(h, inv(1, objE, spec.MethodExchange, history.Int(int64(i))), res(1, objE, spec.MethodExchange, ret))
	}
	r, err := CAL(context.Background(), h, spec.NewExchanger(objE), WithMemoBudget(100*n))
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict == Unknown {
		t.Fatalf("Unknown (%s, %s); want Unsat within a %d-byte memo budget", r.Unknown.Reason, r.Unknown.Frontier, 100*n)
	}
	if r.Verdict != Unsat {
		t.Fatalf("verdict = %v, want Unsat", r.Verdict)
	}
	if r.States != n {
		t.Errorf("States = %d, want %d", r.States, n)
	}
}

func TestCALPartialWitness(t *testing.T) {
	// A satisfiable pairing followed by the exponential adversary: the
	// deepest path linearizes the exchange pair before stalling, so the
	// partial witness in the Unknown verdict is non-empty.
	const m = 22
	h := history.History{
		inv(10, objE, spec.MethodExchange, history.Int(3)),
		inv(11, objE, spec.MethodExchange, history.Int(4)),
		res(10, objE, spec.MethodExchange, history.Pair(true, 4)),
		res(11, objE, spec.MethodExchange, history.Pair(true, 3)),
	}
	h = append(h, adversarialSnapshotHistory(m, m+1)...)
	sp, err := spec.NewProduct(spec.NewExchanger(objE), spec.NewSnapshot(objIS, m+1))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	r, cerr := CAL(ctx, h, sp)
	if cerr != nil {
		t.Fatal(cerr)
	}
	if r.Verdict != Unknown {
		t.Fatalf("verdict = %v, want Unknown", r.Verdict)
	}
	if len(r.Unknown.PartialWitness) == 0 {
		t.Error("partial witness should carry the linearized exchange prefix")
	}
	if r.Unknown.Frontier.BestLinearized < 2 {
		t.Errorf("BestLinearized = %d, want >= 2", r.Unknown.Frontier.BestLinearized)
	}
}
