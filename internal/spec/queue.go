package spec

import (
	"fmt"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// Methods of the FIFO queue interface.
const (
	MethodEnq history.Method = "enq"
	MethodDeq history.Method = "deq"
)

// queueState is an immutable FIFO queue of integers; the front of items
// is the head.
type queueState struct {
	items ints
}

func (q queueState) Key() string { return string(q.items) }

// Queue is the sequential FIFO queue specification: enq(v) ▷ true enqueues,
// deq() ▷ (true,v) dequeues the head, deq() ▷ (false,0) is admitted only on
// the empty queue. It serves as a cross-validation target for the checkers
// and as the specification of elimination-based queues ([17]).
type Queue struct {
	Obj history.ObjectID
}

var (
	_ Spec            = Queue{}
	_ PendingResolver = Queue{}
)

// NewQueue returns the FIFO queue specification for object o.
func NewQueue(o history.ObjectID) Queue { return Queue{Obj: o} }

// Name implements Spec.
func (q Queue) Name() string { return "queue(" + string(q.Obj) + ")" }

// Object implements Spec.
func (q Queue) Object() history.ObjectID { return q.Obj }

// Init implements Spec.
func (q Queue) Init() State { return queueState{} }

// MaxElementSize implements Spec.
func (q Queue) MaxElementSize() int { return 1 }

// Step implements Spec.
func (q Queue) Step(s State, el trace.Element) (State, error) {
	if el.Object != q.Obj {
		return nil, fmt.Errorf("element on object %s, spec constrains %s", el.Object, q.Obj)
	}
	if len(el.Ops) != 1 {
		return nil, fmt.Errorf("queue elements are singletons, got %d operations", len(el.Ops))
	}
	qs, ok := s.(queueState)
	if !ok {
		return nil, fmt.Errorf("foreign state %T", s)
	}
	op := el.Ops[0]
	switch op.Method {
	case MethodEnq:
		if op.Arg.Kind != history.KindInt || op.Ret.Kind != history.KindBool || !op.Ret.B {
			return nil, fmt.Errorf("enq must be int ▷ true, got %s ▷ %s", op.Arg, op.Ret)
		}
		return queueState{qs.items.push(op.Arg.N)}, nil
	case MethodDeq:
		if op.Arg.Kind != history.KindUnit || op.Ret.Kind != history.KindPair {
			return nil, fmt.Errorf("deq must be () ▷ (bool,int), got %s ▷ %s", op.Arg, op.Ret)
		}
		if !op.Ret.B {
			if op.Ret.N != 0 {
				return nil, reject("failed deq must return (false,0): %[1]s", el)
			}
			if qs.items != "" {
				return nil, &rejection{format: "deq may fail only on the empty queue, state [%[2]s]", state: qs.items}
			}
			return qs, nil
		}
		v, rest, nonEmpty := qs.items.front()
		if !nonEmpty {
			return nil, reject("successful deq on empty queue: %[1]s", el)
		}
		if v != op.Ret.N {
			return nil, &rejection{format: "deq returned %[3]d but head is %[4]d", n: op.Ret.N, m: v}
		}
		return queueState{rest}, nil
	default:
		return nil, fmt.Errorf("unknown method %s", op.Method)
	}
}

// ResolveReturns implements PendingResolver.
func (q Queue) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	if len(ops) != 1 || len(pendingIdx) != 1 {
		return nil
	}
	qs, ok := s.(queueState)
	if !ok {
		return nil
	}
	switch ops[0].Method {
	case MethodEnq:
		return [][]history.Value{{history.Bool(true)}}
	case MethodDeq:
		if v, _, nonEmpty := qs.items.front(); nonEmpty {
			return [][]history.Value{{history.Pair(true, v)}}
		}
		return [][]history.Value{{history.Pair(false, 0)}}
	}
	return nil
}
