package monitor

import (
	"fmt"
	"strings"
	"testing"

	"calgo/internal/history"
	"calgo/internal/spec"
)

const obj = history.ObjectID("o")

// op builds a complete operation on its own thread so arbitrary window
// overlaps stay well-formed.
func op(t int, m history.Method, arg, ret history.Value, inv, res int) history.Op {
	return history.Op{Thread: history.ThreadID(t), Object: obj, Method: m, Arg: arg, Ret: ret, InvIndex: inv, ResIndex: res}
}

func mustHistory(t *testing.T, ops []history.Op) history.History {
	t.Helper()
	h, err := history.FromOps(ops)
	if err != nil {
		t.Fatalf("FromOps: %v", err)
	}
	return h
}

func enq(t, v, inv, res int) history.Op {
	return op(t, spec.MethodEnq, history.Int(int64(v)), history.Bool(true), inv, res)
}
func deq(t, v, inv, res int) history.Op {
	return op(t, spec.MethodDeq, history.Unit(), history.Pair(true, int64(v)), inv, res)
}
func deqEmpty(t, inv, res int) history.Op {
	return op(t, spec.MethodDeq, history.Unit(), history.Pair(false, 0), inv, res)
}
func push(t, v, inv, res int) history.Op {
	return op(t, spec.MethodPush, history.Int(int64(v)), history.Bool(true), inv, res)
}
func pop(t, v, inv, res int) history.Op {
	return op(t, spec.MethodPop, history.Unit(), history.Pair(true, int64(v)), inv, res)
}
func popEmpty(t, inv, res int) history.Op {
	return op(t, spec.MethodPop, history.Unit(), history.Pair(false, 0), inv, res)
}
func ins(t, v, inv, res int) history.Op {
	return op(t, spec.MethodInsert, history.Int(int64(v)), history.Bool(true), inv, res)
}
func ext(t, v, inv, res int) history.Op {
	return op(t, spec.MethodExtractMin, history.Unit(), history.Pair(true, int64(v)), inv, res)
}
func extEmpty(t, inv, res int) history.Op {
	return op(t, spec.MethodExtractMin, history.Unit(), history.Pair(false, 0), inv, res)
}
func add(t, v int, ret bool, inv, res int) history.Op {
	return op(t, spec.MethodAdd, history.Int(int64(v)), history.Bool(ret), inv, res)
}
func rem(t, v int, ret bool, inv, res int) history.Op {
	return op(t, spec.MethodRemove, history.Int(int64(v)), history.Bool(ret), inv, res)
}
func has(t, v int, ret bool, inv, res int) history.Op {
	return op(t, spec.MethodContains, history.Int(int64(v)), history.Bool(ret), inv, res)
}

func TestMonitorVerdicts(t *testing.T) {
	qSpec := spec.NewQueue(obj)
	sSpec := spec.Stack{Obj: obj}
	setSpec := spec.NewSet(obj)
	pqSpec := spec.NewPQueue(obj)
	cases := []struct {
		name    string
		sp      spec.Spec
		ops     []history.Op
		outcome Outcome
		reason  string // substring of Result.Reason, "" = don't care
	}{
		{"queue/sequential-sat", qSpec,
			[]history.Op{enq(1, 1, 0, 1), enq(1, 2, 2, 3), deq(1, 1, 4, 5), deq(1, 2, 6, 7)}, OK, ""},
		{"queue/overlapping-enqs-sat", qSpec,
			[]history.Op{enq(1, 1, 0, 2), enq(2, 2, 1, 3), deq(1, 2, 4, 5), deq(1, 1, 6, 7)}, OK, ""},
		{"queue/q0-never-enqueued", qSpec,
			[]history.Op{enq(1, 1, 0, 1), deq(1, 5, 2, 3)}, Violation, "Q0"},
		{"queue/q1-deq-before-enq", qSpec,
			[]history.Op{deq(1, 1, 0, 1), enq(1, 1, 2, 3)}, Violation, "Q1"},
		{"queue/q2-fifo-inversion", qSpec,
			[]history.Op{enq(1, 1, 0, 1), enq(1, 2, 2, 3), deq(1, 2, 4, 5), deq(1, 1, 6, 7)}, Violation, "Q2"},
		{"queue/q3-unmatched-overtaken", qSpec,
			[]history.Op{enq(1, 1, 0, 1), enq(1, 2, 2, 3), deq(1, 2, 4, 5)}, Violation, "Q3"},
		{"queue/q4-covered-empty", qSpec,
			[]history.Op{enq(1, 1, 0, 1), deqEmpty(2, 2, 3), deq(1, 1, 4, 5)}, Violation, "Q4"},
		{"queue/empty-before-enq-sat", qSpec,
			[]history.Op{enq(1, 1, 0, 3), deqEmpty(2, 1, 2), deq(1, 1, 4, 5)}, OK, ""},
		{"queue/duplicate-value-ineligible", qSpec,
			[]history.Op{enq(1, 1, 0, 1), deq(1, 1, 2, 3), enq(1, 1, 4, 5), deq(1, 1, 6, 7)}, Ineligible, "ambiguous"},
		{"queue/duplicate-dequeue-ineligible", qSpec,
			[]history.Op{enq(1, 1, 0, 1), deq(1, 1, 2, 3), deq(1, 1, 4, 5)}, Ineligible, "value 1 dequeued more than once"},
		{"queue/pending-ineligible", qSpec,
			[]history.Op{enq(1, 1, 0, 1), {Thread: 2, Object: obj, Method: spec.MethodDeq, Arg: history.Unit(), InvIndex: 2, ResIndex: -1, Pending: true}}, Ineligible, "pending"},

		{"stack/sequential-sat", sSpec,
			[]history.Op{push(1, 1, 0, 1), push(1, 2, 2, 3), pop(1, 2, 4, 5), pop(1, 1, 6, 7)}, OK, ""},
		{"stack/s0-never-pushed", sSpec,
			[]history.Op{push(1, 1, 0, 1), pop(1, 9, 2, 3)}, Violation, "S0"},
		{"stack/s1-pop-before-push", sSpec,
			[]history.Op{pop(1, 1, 0, 1), push(1, 1, 2, 3)}, Violation, "S1"},
		{"stack/s2-covered-pop-empty", sSpec,
			[]history.Op{push(1, 1, 0, 1), popEmpty(2, 2, 3), pop(1, 1, 4, 5)}, Violation, "S2"},
		{"stack/s3-lifo-violation", sSpec,
			[]history.Op{push(1, 1, 0, 1), push(1, 2, 2, 3), pop(1, 1, 4, 5), pop(1, 2, 6, 7)}, Violation, "S3"},
		{"stack/s4-unmatched-blocks-pop", sSpec,
			[]history.Op{push(1, 1, 0, 1), push(1, 2, 2, 3), pop(1, 1, 4, 5)}, Violation, ""},
		{"stack/forced-below-sat", sSpec,
			[]history.Op{push(1, 1, 0, 3), push(2, 2, 1, 2), pop(2, 2, 4, 5), pop(1, 1, 6, 7)}, OK, ""},
		{"stack/pop-empty-between-sat", sSpec,
			[]history.Op{push(1, 1, 0, 1), pop(1, 1, 2, 3), popEmpty(1, 4, 5), push(1, 2, 6, 7), pop(1, 2, 8, 9)}, OK, ""},
		{"stack/unmatched-tail-sat", sSpec,
			[]history.Op{push(1, 1, 0, 1), pop(1, 1, 2, 3), push(1, 2, 4, 5)}, OK, ""},

		{"set/lifecycle-sat", setSpec,
			[]history.Op{add(1, 1, true, 0, 1), has(1, 1, true, 2, 3), rem(1, 1, true, 4, 5), has(1, 1, false, 6, 7)}, OK, ""},
		{"set/contains-never-added", setSpec,
			[]history.Op{has(1, 1, true, 0, 1)}, Violation, "never added"},
		{"set/add-false-alone", setSpec,
			[]history.Op{add(1, 1, false, 0, 1)}, Violation, "no other add"},
		{"set/false-inside-presence", setSpec,
			[]history.Op{add(1, 1, true, 0, 1), has(2, 1, false, 2, 3), rem(1, 1, true, 4, 5)}, Violation, ""},
		{"set/true-after-remove", setSpec,
			[]history.Op{add(1, 1, true, 0, 1), rem(1, 1, true, 2, 3), has(1, 1, true, 4, 5)}, Violation, ""},
		{"set/overlapping-false-sat", setSpec,
			[]history.Op{has(2, 1, false, 0, 5), add(1, 1, true, 2, 3)}, OK, ""},
		{"set/double-add-ineligible", setSpec,
			[]history.Op{add(1, 1, true, 0, 1), rem(1, 1, true, 2, 3), add(1, 1, true, 4, 5)}, Ineligible, "ambiguous"},

		{"pqueue/sequential-sat", pqSpec,
			[]history.Op{ins(1, 2, 0, 1), ins(1, 1, 2, 3), ext(1, 1, 4, 5), ext(1, 2, 6, 7)}, OK, ""},
		{"pqueue/p0-never-inserted", pqSpec,
			[]history.Op{ins(1, 1, 0, 1), ext(1, 9, 2, 3)}, Violation, "P0"},
		{"pqueue/p1-extract-before-insert", pqSpec,
			[]history.Op{ext(1, 1, 0, 1), ins(1, 1, 2, 3)}, Violation, "P1"},
		{"pqueue/p2-priority-inversion", pqSpec,
			[]history.Op{ins(1, 1, 0, 1), ins(1, 2, 2, 3), ext(1, 2, 4, 5), ext(1, 1, 6, 7)}, Violation, "P2"},
		{"pqueue/p2-late-small-insert-sat", pqSpec,
			[]history.Op{ins(2, 1, 0, 9), ins(1, 2, 1, 2), ext(1, 2, 3, 4), ext(1, 1, 6, 7)}, OK, ""},
		{"pqueue/p3-covered-empty", pqSpec,
			[]history.Op{ins(1, 1, 0, 1), extEmpty(2, 2, 3), ext(1, 1, 4, 5)}, Violation, "P3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := mustHistory(t, tc.ops)
			res := Check(h, tc.sp)
			if res.Outcome != tc.outcome {
				t.Fatalf("outcome = %s (reason %q), want %s", res.Outcome, res.Reason, tc.outcome)
			}
			if tc.reason != "" && !strings.Contains(res.Reason, tc.reason) {
				t.Fatalf("reason %q does not mention %q", res.Reason, tc.reason)
			}
		})
	}
}

// TestQueueReasonsNameValues pins that the Q2 and Q3 reasons name both
// values of the pattern, not just the one whose dequeue detects it.
func TestQueueReasonsNameValues(t *testing.T) {
	qSpec := spec.NewQueue(obj)
	cases := []struct {
		name string
		ops  []history.Op
		want []string
	}{
		{"q2", []history.Op{enq(1, 10, 0, 1), enq(1, 20, 2, 3), deq(1, 20, 4, 5), deq(1, 10, 6, 7)},
			[]string{"Q2", "enq(10)", "enq(20)", "deq ▷ 20", "deq ▷ 10"}},
		{"q3", []history.Op{enq(1, 10, 0, 1), enq(1, 20, 2, 3), deq(1, 20, 4, 5)},
			[]string{"Q3", "enq(20)", "enq(10)", "20 is dequeued", "10 never is"}},
	}
	for _, tc := range cases {
		res := Check(mustHistory(t, tc.ops), qSpec)
		if res.Outcome != Violation {
			t.Fatalf("%s: outcome %s (%s), want violation", tc.name, res.Outcome, res.Reason)
		}
		for _, w := range tc.want {
			if !strings.Contains(res.Reason, w) {
				t.Errorf("%s: reason %q does not mention %q", tc.name, res.Reason, w)
			}
		}
	}
}

// BenchmarkQueueCheck measures Check on 100k-event linearizable queue
// histories, extraction of the operations included.
func BenchmarkQueueCheck(b *testing.B) {
	sp := spec.NewQueue(obj)
	for _, threads := range []int{2, 4, 8} {
		h := GenQueue(50_000, threads, 42, obj)
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r := Check(h, sp); r.Outcome != OK {
					b.Fatal(r.Reason)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(h)), "ns/event")
		})
	}
}

func TestSpecKind(t *testing.T) {
	if k := SpecKind(spec.NewQueue(obj)); k != KindQueue {
		t.Fatalf("queue kind = %s", k)
	}
	if k := SpecKind(spec.Stack{Obj: obj, AllowContention: true}); k != KindNone {
		t.Fatalf("contended stack kind = %s, want none", k)
	}
	if k := SpecKind(spec.NewRegister(obj)); k != KindNone {
		t.Fatalf("register kind = %s, want none", k)
	}
}

// TestGeneratorsProduceLinearizable pins the generators' construction:
// every generated history is well-formed, complete, eligible, and
// accepted by its monitor.
func TestGeneratorsProduceLinearizable(t *testing.T) {
	gens := []struct {
		name string
		sp   spec.Spec
		gen  func(n, threads int, seed int64, obj history.ObjectID) history.History
	}{
		{"queue", spec.NewQueue(obj), GenQueue},
		{"stack", spec.Stack{Obj: obj}, GenStack},
		{"set", spec.NewSet(obj), GenSet},
		{"pqueue", spec.NewPQueue(obj), GenPQueue},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			for seed := int64(0); seed < 25; seed++ {
				n := 5 + int(seed)*7
				h := g.gen(n, 1+int(seed)%4, seed, obj)
				if !h.IsComplete() {
					t.Fatalf("seed %d: generated history is not complete", seed)
				}
				res := Check(h, g.sp)
				if res.Outcome != OK {
					t.Fatalf("seed %d: monitor outcome %s (reason %q) on a linearizable-by-construction history:\n%s",
						seed, res.Outcome, res.Reason, h)
				}
			}
		})
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := GenQueue(50, 3, 42, obj)
	b := GenQueue(50, 3, 42, obj)
	if a.String() != b.String() {
		t.Fatal("GenQueue is not deterministic for a fixed seed")
	}
}
