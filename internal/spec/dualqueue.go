package spec

import (
	"fmt"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// DualQueue is the concurrency-aware specification of a dual FIFO queue
// (Scherer & Scott): a queue whose deq operations wait for a value instead
// of failing on empty. An enq fulfilling a waiting deq forms the single
// CA-element
//
//	Q.{(t, enq(v) ▷ true), (t', deq() ▷ (true,v))}
//
// Unlike the dual *stack*, where a push immediately popped is valid in any
// state, FIFO order makes the fulfilment pair valid ONLY on the empty
// queue: a deq must take the head, so enq(v)·deq▷v adjacent requires no
// older data. (The implementation guarantees this structurally: it
// fulfils reservations only while the queue holds reservations, i.e. no
// data.) Singleton elements follow the ordinary FIFO queue specification.
type DualQueue struct {
	Obj history.ObjectID
}

var (
	_ Spec            = DualQueue{}
	_ PendingResolver = DualQueue{}
)

// NewDualQueue returns the dual queue specification for object o.
func NewDualQueue(o history.ObjectID) DualQueue { return DualQueue{Obj: o} }

// Name implements Spec.
func (d DualQueue) Name() string { return "dual-queue(" + string(d.Obj) + ")" }

// Object implements Spec.
func (d DualQueue) Object() history.ObjectID { return d.Obj }

// Init implements Spec.
func (d DualQueue) Init() State { return queueState{} }

// MaxElementSize implements Spec.
func (d DualQueue) MaxElementSize() int { return 2 }

// Step implements Spec.
func (d DualQueue) Step(s State, el trace.Element) (State, error) {
	if el.Object != d.Obj {
		return nil, fmt.Errorf("element on object %s, spec constrains %s", el.Object, d.Obj)
	}
	switch len(el.Ops) {
	case 1:
		return Queue{Obj: d.Obj}.Step(s, el)
	case 2:
		qs, ok := s.(queueState)
		if !ok {
			return nil, fmt.Errorf("foreign state %T", s)
		}
		if err := handOff(el, MethodEnq, MethodDeq); err != nil {
			return nil, err
		}
		if qs.items != "" {
			return nil, &rejection{format: "fulfilment requires the empty queue (FIFO), state [%[2]s]: %[1]s", el: el, state: qs.items}
		}
		return qs, nil
	default:
		return nil, fmt.Errorf("dual queue elements have one or two operations, got %d", len(el.Ops))
	}
}

// ResolveReturns implements PendingResolver.
func (d DualQueue) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	switch len(ops) {
	case 1:
		return Queue{Obj: d.Obj}.ResolveReturns(s, ops, pendingIdx)
	case 2:
		return resolveHandOff(ops, pendingIdx, MethodEnq)
	default:
		return nil
	}
}

// QFulfilmentElement builds the pair element of an enq fulfilling a
// waiting deq.
func QFulfilmentElement(o history.ObjectID, enqer history.ThreadID, v int64, deqer history.ThreadID) trace.Element {
	return trace.MustElement(
		trace.Operation{Thread: enqer, Object: o, Method: MethodEnq, Arg: history.Int(v), Ret: history.Bool(true)},
		trace.Operation{Thread: deqer, Object: o, Method: MethodDeq, Arg: history.Unit(), Ret: history.Pair(true, v)},
	)
}
