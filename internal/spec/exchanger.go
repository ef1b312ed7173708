package spec

import (
	"fmt"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// MethodExchange is the single method of the exchanger interface.
const MethodExchange history.Method = "exchange"

// Exchanger is the CA-specification of the exchanger object (§4): every
// admitted CA-element is either
//
//   - a swap E.{(t, exchange(v) ▷ (true,v')), (t', exchange(v') ▷ (true,v))}
//     with t ≠ t' — two concurrent threads exchanging their values — or
//   - a failure singleton E.{(t, exchange(v) ▷ (false,v))}.
//
// The specification is stateless: any sequence of such elements is a valid
// CA-trace, which is exactly the paper's trace-set specification S1S2S3...
type Exchanger struct {
	Obj history.ObjectID
}

var (
	_ Spec            = Exchanger{}
	_ PendingResolver = Exchanger{}
)

// NewExchanger returns the exchanger specification for object o.
func NewExchanger(o history.ObjectID) Exchanger { return Exchanger{Obj: o} }

// Name implements Spec.
func (e Exchanger) Name() string { return "exchanger(" + string(e.Obj) + ")" }

// Object implements Spec.
func (e Exchanger) Object() history.ObjectID { return e.Obj }

// Init implements Spec.
func (e Exchanger) Init() State { return Empty() }

// MaxElementSize implements Spec: swaps pair exactly two operations.
func (e Exchanger) MaxElementSize() int { return 2 }

// Step implements Spec.
func (e Exchanger) Step(s State, el trace.Element) (State, error) {
	if el.Object != e.Obj {
		return nil, fmt.Errorf("element on object %s, spec constrains %s", el.Object, e.Obj)
	}
	for _, op := range el.Ops {
		if op.Method != MethodExchange {
			return nil, fmt.Errorf("unknown method %s", op.Method)
		}
		if op.Arg.Kind != history.KindInt {
			return nil, fmt.Errorf("exchange argument must be an int, got %s", op.Arg)
		}
		if op.Ret.Kind != history.KindPair {
			return nil, fmt.Errorf("exchange result must be a (bool,int) pair, got %s", op.Ret)
		}
	}
	switch len(el.Ops) {
	case 1:
		op := el.Ops[0]
		if op.Ret.B {
			return nil, reject("a successful exchange cannot stand alone: %[1]s", el)
		}
		if op.Ret.N != op.Arg.N {
			return nil, reject("failed exchange must return its own value: %[1]s", el)
		}
		return s, nil
	case 2:
		a, b := el.Ops[0], el.Ops[1]
		if !a.Ret.B || !b.Ret.B {
			return nil, reject("both operations of a swap must succeed: %[1]s", el)
		}
		if a.Ret.N != b.Arg.N || b.Ret.N != a.Arg.N {
			return nil, reject("swap values do not cross: %[1]s", el)
		}
		// NewElement already guarantees a.Thread != b.Thread.
		return s, nil
	default:
		return nil, fmt.Errorf("exchanger elements have one or two operations, got %d", len(el.Ops))
	}
}

// ResolveReturns implements PendingResolver. A lone pending exchange can
// only be completed as a failure; within a pair, each pending operation's
// return is forced to (true, partner's argument).
func (e Exchanger) ResolveReturns(_ State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	switch len(ops) {
	case 1:
		return [][]history.Value{{history.Pair(false, ops[0].Arg.N)}}
	case 2:
		rets := make([]history.Value, 0, len(pendingIdx))
		for _, i := range pendingIdx {
			partner := ops[1-i]
			rets = append(rets, history.Pair(true, partner.Arg.N))
		}
		return [][]history.Value{rets}
	default:
		return nil
	}
}

// NewElimArray returns the specification of the elimination array (§5): an
// elimination array "exposes the same specification as a single exchanger".
func NewElimArray(o history.ObjectID) Exchanger { return NewExchanger(o) }

// SwapElement builds the paper's E.swap(t,v,t',v') abbreviation: the
// CA-element pairing a successful exchange of v by t with a successful
// exchange of v' by t'.
func SwapElement(o history.ObjectID, t history.ThreadID, v int64, u history.ThreadID, w int64) trace.Element {
	return trace.MustElement(
		trace.Operation{Thread: t, Object: o, Method: MethodExchange, Arg: history.Int(v), Ret: history.Pair(true, w)},
		trace.Operation{Thread: u, Object: o, Method: MethodExchange, Arg: history.Int(w), Ret: history.Pair(true, v)},
	)
}

// FailElement builds the failure singleton E.{(t, exchange(v) ▷ (false,v))}.
func FailElement(o history.ObjectID, t history.ThreadID, v int64) trace.Element {
	return trace.Singleton(trace.Operation{
		Thread: t, Object: o, Method: MethodExchange,
		Arg: history.Int(v), Ret: history.Pair(false, v),
	})
}
