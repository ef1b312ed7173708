package spec

import (
	"fmt"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// Methods of the priority-queue interface.
const (
	MethodInsert     history.Method = "insert"
	MethodExtractMin history.Method = "extractmin"
)

// pqueueState is an immutable min-priority queue of integers; items holds
// them in ascending order, so its front is the minimum.
type pqueueState struct {
	items ints
}

func (p pqueueState) Key() string { return string(p.items) }

// PQueue is the sequential min-priority-queue specification: insert(v) ▷
// true inserts, extractmin() ▷ (true,v) removes and returns the minimum,
// extractmin() ▷ (false,0) is admitted only on the empty queue. Every
// element is a singleton. Unambiguous priority-queue histories (distinct
// inserted values) admit the log-linear specialized monitor in
// calgo/internal/monitor.
type PQueue struct {
	Obj history.ObjectID
}

var (
	_ Spec            = PQueue{}
	_ PendingResolver = PQueue{}
)

// NewPQueue returns the min-priority-queue specification for object o.
func NewPQueue(o history.ObjectID) PQueue { return PQueue{Obj: o} }

// Name implements Spec.
func (p PQueue) Name() string { return "pqueue(" + string(p.Obj) + ")" }

// Object implements Spec.
func (p PQueue) Object() history.ObjectID { return p.Obj }

// Init implements Spec.
func (p PQueue) Init() State { return pqueueState{} }

// MaxElementSize implements Spec: the priority-queue spec is sequential.
func (p PQueue) MaxElementSize() int { return 1 }

// Step implements Spec.
func (p PQueue) Step(s State, el trace.Element) (State, error) {
	if el.Object != p.Obj {
		return nil, fmt.Errorf("element on object %s, spec constrains %s", el.Object, p.Obj)
	}
	if len(el.Ops) != 1 {
		return nil, fmt.Errorf("pqueue elements are singletons, got %d operations", len(el.Ops))
	}
	ps, ok := s.(pqueueState)
	if !ok {
		return nil, fmt.Errorf("foreign state %T", s)
	}
	op := el.Ops[0]
	switch op.Method {
	case MethodInsert:
		if op.Arg.Kind != history.KindInt || op.Ret.Kind != history.KindBool || !op.Ret.B {
			return nil, fmt.Errorf("insert must be int ▷ true, got %s ▷ %s", op.Arg, op.Ret)
		}
		return pqueueState{ps.items.insert(op.Arg.N)}, nil
	case MethodExtractMin:
		if op.Arg.Kind != history.KindUnit || op.Ret.Kind != history.KindPair {
			return nil, fmt.Errorf("extractmin must be () ▷ (bool,int), got %s ▷ %s", op.Arg, op.Ret)
		}
		if !op.Ret.B {
			if op.Ret.N != 0 {
				return nil, reject("failed extractmin must return (false,0): %[1]s", el)
			}
			if ps.items != "" {
				return nil, &rejection{format: "extractmin may fail only on the empty queue, state [%[2]s]", state: ps.items}
			}
			return ps, nil
		}
		v, rest, nonEmpty := ps.items.front()
		if !nonEmpty {
			return nil, reject("successful extractmin on empty queue: %[1]s", el)
		}
		if v != op.Ret.N {
			return nil, &rejection{format: "extractmin returned %[3]d but minimum is %[4]d", n: op.Ret.N, m: v}
		}
		return pqueueState{rest}, nil
	default:
		return nil, fmt.Errorf("unknown method %s", op.Method)
	}
}

// ResolveReturns implements PendingResolver.
func (p PQueue) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	if len(ops) != 1 || len(pendingIdx) != 1 {
		return nil
	}
	ps, ok := s.(pqueueState)
	if !ok {
		return nil
	}
	switch ops[0].Method {
	case MethodInsert:
		return [][]history.Value{{history.Bool(true)}}
	case MethodExtractMin:
		if v, _, nonEmpty := ps.items.front(); nonEmpty {
			return [][]history.Value{{history.Pair(true, v)}}
		}
		return [][]history.Value{{history.Pair(false, 0)}}
	}
	return nil
}
