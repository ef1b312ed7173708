package trace

import (
	"strings"
	"testing"

	"calgo/internal/history"
)

// The Figure 3 histories of the paper.

func fig3H1() history.History {
	return history.History{
		history.Inv(1, objE, exch, history.Int(3)),
		history.Inv(2, objE, exch, history.Int(4)),
		history.Inv(3, objE, exch, history.Int(7)),
		history.Res(1, objE, exch, history.Pair(true, 4)),
		history.Res(2, objE, exch, history.Pair(true, 3)),
		history.Res(3, objE, exch, history.Pair(false, 7)),
	}
}

func fig3H2() history.History {
	return history.History{
		history.Inv(1, objE, exch, history.Int(3)),
		history.Inv(2, objE, exch, history.Int(4)),
		history.Res(1, objE, exch, history.Pair(true, 4)),
		history.Res(2, objE, exch, history.Pair(true, 3)),
		history.Inv(3, objE, exch, history.Int(7)),
		history.Res(3, objE, exch, history.Pair(false, 7)),
	}
}

func TestAgreesFig3(t *testing.T) {
	swapThenFail := Trace{swapElem(1, 3, 2, 4), failElem(3, 7)}
	failThenSwap := Trace{failElem(3, 7), swapElem(1, 3, 2, 4)}

	// H1: all operations overlap, so both element orders explain it.
	if err := Agrees(fig3H1(), swapThenFail); err != nil {
		t.Errorf("H1 ⊑CAL swap·fail should hold: %v", err)
	}
	if err := Agrees(fig3H1(), failThenSwap); err != nil {
		t.Errorf("H1 ⊑CAL fail·swap should hold: %v", err)
	}

	// H2: t3 runs strictly after the swap pair, so only swap·fail works.
	if err := Agrees(fig3H2(), swapThenFail); err != nil {
		t.Errorf("H2 ⊑CAL swap·fail should hold: %v", err)
	}
	if err := Agrees(fig3H2(), failThenSwap); err == nil {
		t.Error("H2 ⊑CAL fail·swap must fail: real-time order is violated")
	}
}

func TestAgreesRejectsWrongOps(t *testing.T) {
	h := fig3H1()
	// Wrong return value in the trace.
	bad := Trace{swapElem(1, 3, 2, 5), failElem(3, 7)}
	if err := Agrees(h, bad); err == nil {
		t.Error("trace with wrong values must not agree")
	}
	// Missing the failed operation.
	if err := Agrees(h, Trace{swapElem(1, 3, 2, 4)}); err == nil {
		t.Error("trace missing an operation must not agree")
	}
	// Extra element.
	extra := Trace{swapElem(1, 3, 2, 4), failElem(3, 7), failElem(4, 9)}
	if err := Agrees(h, extra); err == nil {
		t.Error("trace with extra operations must not agree")
	}
}

func TestAgreesRequiresOverlapWithinElement(t *testing.T) {
	// t1 and t2 do NOT overlap; a swap element pairing them must be
	// rejected because co-members of a CA-element must be concurrent.
	h := history.History{
		history.Inv(1, objE, exch, history.Int(3)),
		history.Res(1, objE, exch, history.Pair(true, 4)),
		history.Inv(2, objE, exch, history.Int(4)),
		history.Res(2, objE, exch, history.Pair(true, 3)),
	}
	if err := Agrees(h, Trace{swapElem(1, 3, 2, 4)}); err == nil {
		t.Error("sequentially ordered operations cannot share a CA-element")
	}
}

func TestAgreesSequentialHistorySingletonTrace(t *testing.T) {
	// A sequential history agrees exactly with the trace of singletons in
	// the same order (classical linearizability's degenerate case).
	h := history.History{
		history.Inv(1, objE, exch, history.Int(7)),
		history.Res(1, objE, exch, history.Pair(false, 7)),
		history.Inv(2, objE, exch, history.Int(8)),
		history.Res(2, objE, exch, history.Pair(false, 8)),
	}
	inOrder := Trace{failElem(1, 7), failElem(2, 8)}
	reversed := Trace{failElem(2, 8), failElem(1, 7)}
	if err := Agrees(h, inOrder); err != nil {
		t.Errorf("in-order singleton trace should agree: %v", err)
	}
	if err := Agrees(h, reversed); err == nil {
		t.Error("reversed singleton trace must violate real-time order")
	}
}

func TestAgreesEmpty(t *testing.T) {
	if err := Agrees(history.History{}, Trace{}); err != nil {
		t.Errorf("empty history agrees with empty trace: %v", err)
	}
	if err := Agrees(history.History{}, Trace{failElem(1, 1)}); err == nil {
		t.Error("empty history cannot agree with non-empty trace")
	}
}

func TestAgreesRejectsIncomplete(t *testing.T) {
	h := history.History{history.Inv(1, objE, exch, history.Int(3))}
	err := Agrees(h, Trace{})
	if err == nil || !strings.Contains(err.Error(), "complete") {
		t.Errorf("Agrees on incomplete history: err = %v, want completeness complaint", err)
	}
	ill := history.History{history.Res(1, objE, exch, history.Int(3))}
	if err := Agrees(ill, Trace{}); err == nil {
		t.Error("ill-formed history must be rejected")
	}
}

func TestAgreesAmbiguousMatching(t *testing.T) {
	// Two identical fail operations by different threads, ordered in time;
	// the matching must respect which one came first even though the
	// element contents for each thread are distinguishable only by thread.
	h := history.History{
		history.Inv(1, objE, exch, history.Int(5)),
		history.Res(1, objE, exch, history.Pair(false, 5)),
		history.Inv(2, objE, exch, history.Int(5)),
		history.Res(2, objE, exch, history.Pair(false, 5)),
	}
	if err := Agrees(h, Trace{failElem(1, 5), failElem(2, 5)}); err != nil {
		t.Errorf("correct order should agree: %v", err)
	}
	if err := Agrees(h, Trace{failElem(2, 5), failElem(1, 5)}); err == nil {
		t.Error("swapped order must be rejected")
	}
}

func TestAgreesSameThreadRepeatedOps(t *testing.T) {
	// One thread performs the same operation twice; both history ops have
	// identical tuples, forcing the matcher to try both assignments.
	h := history.History{
		history.Inv(1, objE, exch, history.Int(5)),
		history.Res(1, objE, exch, history.Pair(false, 5)),
		history.Inv(1, objE, exch, history.Int(5)),
		history.Res(1, objE, exch, history.Pair(false, 5)),
	}
	tr := Trace{failElem(1, 5), failElem(1, 5)}
	if err := Agrees(h, tr); err != nil {
		t.Errorf("repeated identical ops should agree with repeated singletons: %v", err)
	}
	if err := Agrees(h, Trace{failElem(1, 5)}); err == nil {
		t.Error("one element cannot cover two operations")
	}
}

func TestAgreesBacktrackingRequired(t *testing.T) {
	// Crafted so a greedy matcher that binds t2's op to the first
	// element fails: t2 overlaps t1 and t3, but t1 finished before t3
	// started. Trace is swap(t1,t2') impossible; instead we force the pair
	// (t1,t2) then singleton t3 vs pair (t2,t3) then singleton t1.
	h := history.History{
		history.Inv(1, objE, exch, history.Int(1)),
		history.Inv(2, objE, exch, history.Int(2)),
		history.Res(1, objE, exch, history.Pair(true, 2)),
		history.Inv(3, objE, exch, history.Int(1)),
		history.Res(2, objE, exch, history.Pair(true, 1)),
		history.Res(3, objE, exch, history.Pair(false, 1)),
	}
	// t2 swapped with t1 (values 2<->1); t3 failed. Note t3's arg equals
	// t1's arg, so element matching is ambiguous at the tuple level only
	// for nonidentical threads; the RT order must drive the search.
	good := Trace{swapElem(1, 1, 2, 2), failElem(3, 1)}
	if err := Agrees(h, good); err != nil {
		t.Errorf("valid explanation rejected: %v", err)
	}
	bad := Trace{failElem(3, 1), swapElem(1, 1, 2, 2)}
	if err := Agrees(h, bad); err == nil {
		t.Error("t3 cannot be linearized before t1: t1 precedes t3")
	}
}

func TestAgreesLargeBalancedHistory(t *testing.T) {
	// A larger smoke test: n sequential rounds of a swap pair; matching is
	// essentially forced, exercising the memoized search at depth.
	const rounds = 40
	var h history.History
	var tr Trace
	for i := 0; i < rounds; i++ {
		v := int64(2 * i)
		h = append(h,
			history.Inv(1, objE, exch, history.Int(v)),
			history.Inv(2, objE, exch, history.Int(v+1)),
			history.Res(1, objE, exch, history.Pair(true, v+1)),
			history.Res(2, objE, exch, history.Pair(true, v)),
		)
		tr = append(tr, swapElem(1, v, 2, v+1))
	}
	if err := Agrees(h, tr); err != nil {
		t.Fatalf("balanced history should agree: %v", err)
	}
}

// swapRounds is the sequential run of rounds swap pairs between threads 1
// and 2, with its agreeing trace.
func swapRounds(rounds int) (history.History, Trace) {
	var h history.History
	var tr Trace
	for i := 0; i < rounds; i++ {
		v := int64(2 * i)
		h = append(h,
			history.Inv(1, objE, exch, history.Int(v)),
			history.Inv(2, objE, exch, history.Int(v+1)),
			history.Res(1, objE, exch, history.Pair(true, v+1)),
			history.Res(2, objE, exch, history.Pair(true, v)),
		)
		tr = append(tr, swapElem(1, v, 2, v+1))
	}
	return h, tr
}

func TestAgreesAllocsIndependentOfLength(t *testing.T) {
	allocs := func(ops int) float64 {
		h, tr := swapRounds(ops / 2)
		return testing.AllocsPerRun(5, func() {
			if err := Agrees(h, tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10000); small != large {
		t.Errorf("Agrees allocates %v times at 100 operations and %v at 10,000", small, large)
	}
}

func TestAgreesDiagnostics(t *testing.T) {
	// A value mismatch names the element and both operations.
	err := Agrees(fig3H1(), Trace{swapElem(1, 3, 2, 5), failElem(3, 7)})
	if err == nil {
		t.Fatal("trace with a wrong return value agrees")
	}
	for _, want := range []string{
		"element 1 of 2",
		"(t1, exchange(3) ▷ (true,5))",   // the element's operation
		"(t1, E.exchange(3) ▷ (true,4))", // the history's
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("value mismatch %q does not name %q", err, want)
		}
	}

	// A real-time violation names the operation that responded first and
	// its element: in H2, t1 responds before t3 is invoked.
	err = Agrees(fig3H2(), Trace{failElem(3, 7), swapElem(1, 3, 2, 4)})
	if err == nil {
		t.Fatal("H2 agrees with fail·swap")
	}
	if want := "(t1, E.exchange(3) ▷ (true,4)) (element 2 of 2) responded before"; !strings.Contains(err.Error(), want) {
		t.Errorf("real-time violation %q does not name %q", err, want)
	}
}
