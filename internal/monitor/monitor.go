// Package monitor implements log-linear specialized linearizability
// monitors for *unambiguous* queue, stack, set and priority-queue
// histories, in the style of Lee & Mathur's decrease-and-conquer
// monitoring (arXiv:2410.04581) and the bad-pattern characterizations of
// Bouajjani, Emmi, Enea & Hamza.
//
// The general CAL decision procedure (calgo/internal/check) is
// exponential in the worst case: it searches over linearization orders.
// For *unambiguous* histories — complete histories of a single sequential
// collection object in which every value is inserted at most once — the
// search collapses: linearizability is equivalent to the absence of a
// small set of locally checkable "bad patterns" over the operations'
// invocation/response windows, decidable by sorting and sweeping in
// O(n log n) time and O(n) space, with no state-space search at all.
//
// Check classifies a history (object kind, value-unambiguity,
// completeness) and runs the matching monitor. The queue has one
// monitor for batch and stream alike: Check drives the incremental
// queue stepper (NewStepper) over the whole history, after one pass that
// rejects values enqueued or dequeued twice. The stack, set and pqueue
// monitors are batch passes that their replay steppers re-run. The
// outcome is four-valued:
//
//   - Ineligible: the history is not in the monitor's fragment (wrong
//     spec kind, pending invocations, ambiguous values, malformed
//     shapes). The caller must decide it with the general checker.
//   - OK: the history is linearizable. Sound: the monitor either verified
//     the absence of every bad pattern (queue, set, pqueue) or constructed
//     an explicit witness schedule (stack).
//   - Violation: the history is not linearizable; Reason names the bad
//     pattern. Sound: every reported pattern is a proof of infeasibility.
//   - Inconclusive: the history is in the fragment but the monitor could
//     not decide it (only the stack monitor's greedy scheduler can punt,
//     on rare pathological interleavings). The caller must fall back to
//     the general checker.
//
// The check package's engine dispatch (check.WithEngine) routes eligible
// histories here and falls back to the memoized parallel DFS on
// Ineligible/Inconclusive, so monitors never need to be complete to be
// useful — they only need to be sound, which the cross-validation
// property tests in this package pin against the DFS on the full object
// zoo.
package monitor

import (
	"fmt"

	"calgo/internal/history"
	"calgo/internal/spec"
)

// Kind identifies the specialized monitor a specification maps to.
type Kind uint8

const (
	// KindNone: the specification has no specialized monitor.
	KindNone Kind = iota
	// KindQueue: FIFO queue (spec.Queue).
	KindQueue
	// KindStack: LIFO stack without contention failures (spec.Stack).
	KindStack
	// KindSet: integer set (spec.Set).
	KindSet
	// KindPQueue: min-priority queue (spec.PQueue).
	KindPQueue
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindQueue:
		return "queue"
	case KindStack:
		return "stack"
	case KindSet:
		return "set"
	case KindPQueue:
		return "pqueue"
	default:
		return "none"
	}
}

// Outcome is the four-valued monitor result.
type Outcome uint8

const (
	// Ineligible: the history is outside the unambiguous fragment; use
	// the general checker.
	Ineligible Outcome = iota
	// OK: linearizable.
	OK
	// Violation: not linearizable.
	Violation
	// Inconclusive: eligible but undecided; use the general checker.
	Inconclusive
)

// String returns the outcome's name.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Violation:
		return "violation"
	case Inconclusive:
		return "inconclusive"
	default:
		return "ineligible"
	}
}

// Result reports a monitor run.
type Result struct {
	// Kind is the specialized monitor the specification maps to
	// (KindNone when the spec itself is unsupported).
	Kind Kind
	// Outcome is the four-valued verdict.
	Outcome Outcome
	// Reason explains a Violation (the bad pattern found), an Ineligible
	// classification (why the history left the fragment) or an
	// Inconclusive punt (where the scheduler got stuck). Empty on OK.
	Reason string
	// Ops is the history's operation list, extracted once during
	// classification and reusable by the caller (e.g. for explanations).
	Ops []history.Op
}

func ineligible(k Kind, ops []history.Op, format string, args ...any) Result {
	return Result{Kind: k, Outcome: Ineligible, Reason: fmt.Sprintf(format, args...), Ops: ops}
}

func violation(k Kind, ops []history.Op, format string, args ...any) Result {
	return Result{Kind: k, Outcome: Violation, Reason: fmt.Sprintf(format, args...), Ops: ops}
}

// SpecKind maps a specification to its specialized monitor. A stack spec
// with AllowContention set has no monitor: contention failures make
// push/pop return values ambiguous witnesses of object state.
func SpecKind(sp spec.Spec) Kind {
	switch s := sp.(type) {
	case spec.Queue:
		return KindQueue
	case spec.Stack:
		if s.AllowContention {
			return KindNone
		}
		return KindStack
	case spec.Set:
		return KindSet
	case spec.PQueue:
		return KindPQueue
	default:
		return KindNone
	}
}

// Check classifies h against sp and, when h lies in the unambiguous
// fragment, decides linearizability with the specialized monitor. The
// history must be well-formed (the caller's contract, as in
// check.Checker); Check never mutates h.
func Check(h history.History, sp spec.Spec) Result {
	kind := SpecKind(sp)
	if kind == KindNone {
		return ineligible(kind, nil, "specification %s has no specialized monitor", sp.Name())
	}
	ops := h.Operations()
	obj := sp.Object()
	for i := range ops {
		if ops[i].Pending {
			return ineligible(kind, ops, "history has pending invocations (monitors require complete histories)")
		}
		if ops[i].Object != obj {
			return ineligible(kind, ops, "history touches object %s, spec constrains %s", ops[i].Object, obj)
		}
	}
	switch kind {
	case KindQueue:
		return decideQueue(h, ops)
	case KindStack:
		return checkStack(ops)
	case KindSet:
		return checkSet(ops)
	case KindPQueue:
		return checkPQueue(ops)
	}
	return ineligible(kind, ops, "unreachable")
}
