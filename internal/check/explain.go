package check

import (
	"calgo/internal/history"
	"calgo/internal/trace"
)

// Explanation is the structured evidence behind a verdict — the paper's
// artifacts made inspectable instead of stringly: the history's
// operations, the witness CA-trace (full on Sat, the deepest partial
// linearization on Unsat/Unknown), and derived views of the `H ⊑CAL T`
// surjection (Definition 5) and of the operations the search could not
// linearize. It is attached to every Result; construction is O(1) (slice
// headers over state the search already retained) and the derived views
// are computed on demand, so explaining costs nothing until a renderer
// asks.
//
// All index-valued views index into Ops, which lists the history's
// operations in invocation order.
type Explanation struct {
	// Verdict mirrors Result.Verdict.
	Verdict Verdict
	// Ops are the history's operations in invocation order; InvIndex and
	// ResIndex locate each operation's actions within the history.
	Ops []history.Op
	// Witness is the matched CA-trace on Sat, or the CA-trace prefix of
	// the deepest linearization reached on Unsat/Unknown (a diagnostic
	// lead, not a proof).
	Witness trace.Trace
}

// NumEvents returns the number of actions in the underlying history
// (the timeline's horizontal extent).
func (e *Explanation) NumEvents() int {
	n := 0
	for _, op := range e.Ops {
		if op.InvIndex+1 > n {
			n = op.InvIndex + 1
		}
		if !op.Pending && op.ResIndex+1 > n {
			n = op.ResIndex + 1
		}
	}
	return n
}

// ElementOps returns the matched surjection restricted to this history:
// ElementOps()[k] lists the indices (into Ops) of the operations absorbed
// by Witness[k]. On Sat this is the surjection required by H ⊑CAL T
// (Definition 5); on Unsat/Unknown it covers only the partial witness.
//
// The mapping is the forced one of trace.Assign: linearization respects
// the real-time order, and a thread's operations are totally ordered by
// it, so the i-th element mentioning thread t absorbed t's i-th operation.
func (e *Explanation) ElementOps() [][]int {
	out := trace.Assign(e.Ops, e.Witness)
	for k, idx := range out {
		kept := idx[:0]
		for _, i := range idx {
			if i >= 0 {
				kept = append(kept, i)
			}
		}
		out[k] = kept
	}
	return out
}

// ElementOf returns, for every operation, the index of the witness
// element that absorbed it, or -1 for operations outside the witness
// (stuck or dropped).
func (e *Explanation) ElementOf() []int {
	out := make([]int, len(e.Ops))
	for i := range out {
		out[i] = -1
	}
	for k, idx := range e.ElementOps() {
		for _, i := range idx {
			out[i] = k
		}
	}
	return out
}

// Stuck returns the indices of completed operations the witness does not
// cover, in invocation order. On Unsat these are the operations the
// deepest search path failed to linearize; the first entry is the first
// blocked operation. Empty on Sat.
func (e *Explanation) Stuck() []int {
	var out []int
	for i, el := range e.ElementOf() {
		if el < 0 && !e.Ops[i].Pending {
			out = append(out, i)
		}
	}
	return out
}

// FirstBlocked returns the index of the first completed operation the
// witness does not cover, or -1 when every completed operation is
// explained (Sat).
func (e *Explanation) FirstBlocked() int {
	if s := e.Stuck(); len(s) > 0 {
		return s[0]
	}
	return -1
}

// DroppedIdx returns the indices of pending operations outside the
// witness — on Sat, exactly the invocations the chosen completion
// removed (Definition 2).
func (e *Explanation) DroppedIdx() []int {
	var out []int
	for i, el := range e.ElementOf() {
		if el < 0 && e.Ops[i].Pending {
			out = append(out, i)
		}
	}
	return out
}
