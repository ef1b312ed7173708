package monitor

import (
	"fmt"

	"calgo/internal/history"
	"calgo/internal/spec"
)

// StepResult reports one Advance or Finish call.
type StepResult struct {
	// Outcome is the sticky four-valued verdict, reported per event: the
	// first non-OK outcome is final. OK means the event prefix seen so
	// far passes every check run so far ("Sat-so-far": incremental
	// steppers have checked the full prefix, replay steppers the prefix
	// through the last quiescent re-check). Violation means the prefix is
	// not linearizable; linearizability is closed under event prefixes
	// (pending invocations may be dropped or completed), so every
	// extension is non-linearizable too. Ineligible (the stream left the
	// unambiguous fragment: malformed shapes, ambiguous values,
	// mismatched responses) and Inconclusive (in the fragment but
	// undecided, as when the stack monitor's greedy scheduler punts) tell
	// the caller to fall back to the general checker. The zero value is
	// Ineligible, so every result sets Outcome explicitly.
	Outcome Outcome
	// Reason explains any non-OK outcome (the bad pattern found, or why
	// the stream left the monitored fragment). It may also annotate an OK
	// Finish (e.g. noting that final checks were skipped on an incomplete
	// stream).
	Reason string
	// AtEvent is the stream index of the event that made the prefix bad
	// (for incremental steppers this is exact: the prefix through AtEvent
	// is non-linearizable) or at which the condition was detected (replay
	// steppers detect at quiescent re-check boundaries). -1 when OK.
	AtEvent int
}

var stepOK = StepResult{Outcome: OK, AtEvent: -1}

// StepStats is a point-in-time snapshot of a stepper's footprint.
type StepStats struct {
	// Events fed so far (both kinds).
	Events int
	// Ops completed (matched invoke/respond pairs).
	Ops int
	// Pending invocations currently open.
	Pending int
	// Resident records currently held (value records, log entries,
	// merged cores, retained ops). The memory bound of the stepper.
	Resident int
	// Shed counts decided records discarded to bound memory. Zero for
	// replay steppers, which retain every completed operation.
	Shed int64
	// Checks counts batch monitor re-runs (replay steppers only).
	Checks int64
	// Unchecked counts events fed since the verdict was last exact: zero
	// for incremental steppers, events since the last quiescent re-check
	// for replay steppers.
	Unchecked int
	// Incremental is true when the stepper decides event-by-event and
	// sheds decided state (the queue stepper); false for replay steppers.
	Incremental bool
}

// Stepper is the incremental advance API over the specialized monitors: a
// single-object monitor advanced event-by-event over an unbounded stream.
//
// The queue stepper is fully incremental: every event updates O(log n)
// state, violations are reported at the exact event that makes the prefix
// non-linearizable, and fully decided value records are shed so the
// resident footprint tracks the live (pending or unmatched) operations
// rather than the stream length. It is also the queue's batch monitor:
// Check feeds it whole histories. Shedding waives one check: a value
// enqueued again after its record was shed is treated as fresh rather
// than ambiguous, and dequeued again, as a Q0 violation, so callers must
// feed value-unambiguous streams (the same contract the batch monitors
// require; Check enforces it with one pass before it runs the stepper).
//
// Stack, set and priority-queue histories have no incremental bad-pattern
// evaluation yet; their steppers retain every completed operation and
// re-run the batch monitor at quiescent cuts (no invocation pending — the
// retained prefix is then a complete history the batch monitor decides
// exactly) at least checkEvery operations apart, and again at Finish.
//
// Steppers assume the event stream is well-formed per thread (the stream
// front-end's contract) and single-object; mismatched responses are
// reported as Ineligible, never panics.
type Stepper interface {
	// Advance feeds one event with its stream index (indices must be
	// strictly increasing; they define the real-time order). After a
	// non-OK result every further call returns the same sticky result.
	Advance(ev history.Event, idx int) StepResult
	// Finish runs the end-of-stream checks that need the final history
	// (queue Q3/Q4 residue; replay steppers re-check a complete tail).
	// If invocations are still pending the final checks are skipped and
	// the sticky prefix verdict is returned with an annotating Reason.
	// The stepper is terminal afterwards.
	Finish() StepResult
	// Stats snapshots the stepper's footprint.
	Stats() StepStats
	// Kind names the specialized monitor driving this stepper.
	Kind() Kind
}

// NewStepper builds the incremental monitor for sp. checkEvery bounds how
// often replay steppers re-run the batch monitor, in completed
// operations; a cadence below 1 re-checks at every quiescent cut. The
// queue stepper checks every event and ignores it. Specs outside the
// monitored fragment (SpecKind == KindNone) error.
func NewStepper(sp spec.Spec, checkEvery int) (Stepper, error) {
	kind := SpecKind(sp)
	if kind == KindNone {
		return nil, fmt.Errorf("monitor: specification %s has no specialized monitor", sp.Name())
	}
	if kind == KindQueue {
		return newQueueStepper(), nil
	}
	return &replayStepper{
		kind:       kind,
		checkEvery: checkEvery,
		pend:       make(map[history.ThreadID]stepPending),
	}, nil
}

// stepPending is an invocation awaiting its response.
type stepPending struct {
	method history.Method
	arg    history.Value
	inv    int
}

// replayStepper retains completed operations and re-runs the batch
// monitor at quiescent cuts: whenever no invocation is pending, the
// retained prefix is a complete history and the batch monitor's verdict
// on it is exact. Between cuts the verdict is the one from the last cut.
type replayStepper struct {
	kind       Kind
	pend       map[history.ThreadID]stepPending
	ops        []history.Op
	events     int
	lastIdx    int
	dirty      int // completed ops since the last batch re-check
	checkedAt  int // events count at the last batch re-check
	checkEvery int
	checks     int64
	done       *StepResult
}

func (r *replayStepper) Kind() Kind { return r.kind }

func (r *replayStepper) fail(o Outcome, at int, format string, args ...any) StepResult {
	res := StepResult{Outcome: o, Reason: fmt.Sprintf(format, args...), AtEvent: at}
	r.done = &res
	return res
}

func (r *replayStepper) Advance(ev history.Event, idx int) StepResult {
	if r.done != nil {
		return *r.done
	}
	r.events++
	r.lastIdx = idx
	switch ev.Kind {
	case history.Invoke:
		if _, dup := r.pend[ev.Thread]; dup {
			return r.fail(Ineligible, idx, "thread %s invokes %s while an operation is pending", ev.Thread, ev.Method)
		}
		r.pend[ev.Thread] = stepPending{method: ev.Method, arg: ev.Arg, inv: idx}
	case history.Respond:
		p, ok := r.pend[ev.Thread]
		if !ok || p.method != ev.Method {
			return r.fail(Ineligible, idx, "response %s on thread %s does not match a pending invocation", ev.Method, ev.Thread)
		}
		delete(r.pend, ev.Thread)
		r.ops = append(r.ops, history.Op{
			Thread: ev.Thread, Object: ev.Object, Method: ev.Method,
			Arg: p.arg, Ret: ev.Ret, InvIndex: p.inv, ResIndex: idx,
		})
		r.dirty++
		if len(r.pend) == 0 && r.dirty >= r.checkEvery {
			return r.recheck(idx)
		}
	default:
		return r.fail(Ineligible, idx, "unknown event kind %d", ev.Kind)
	}
	return stepOK
}

// recheck runs the batch monitor over the retained (complete) prefix.
func (r *replayStepper) recheck(at int) StepResult {
	r.checks++
	r.dirty = 0
	r.checkedAt = r.events
	var res Result
	switch r.kind {
	case KindStack:
		res = checkStack(r.ops)
	case KindSet:
		res = checkSet(r.ops)
	case KindPQueue:
		res = checkPQueue(r.ops)
	default:
		return r.fail(Ineligible, at, "no batch monitor for kind %s", r.kind)
	}
	if res.Outcome == OK {
		return stepOK
	}
	// A Violation on the complete prefix is final for every extension
	// (prefix closure); a punt hands the stream to the general checker.
	return r.fail(res.Outcome, at, "%s", res.Reason)
}

func (r *replayStepper) Finish() StepResult {
	if r.done != nil {
		return *r.done
	}
	if len(r.pend) > 0 {
		res := StepResult{
			Outcome: OK,
			Reason:  fmt.Sprintf("%d invocations pending at end of stream; final batch re-check skipped", len(r.pend)),
			AtEvent: -1,
		}
		r.done = &res
		return res
	}
	if r.dirty > 0 || r.checks == 0 {
		res := r.recheck(r.lastIdx)
		r.done = &res
		return res
	}
	res := stepOK
	r.done = &res
	return res
}

func (r *replayStepper) Stats() StepStats {
	return StepStats{
		Events:    r.events,
		Ops:       len(r.ops),
		Pending:   len(r.pend),
		Resident:  len(r.ops) + len(r.pend),
		Checks:    r.checks,
		Unchecked: r.events - r.checkedAt,
	}
}
