package spec

import (
	"fmt"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// Methods of the stack interface.
const (
	MethodPush history.Method = "push"
	MethodPop  history.Method = "pop"
)

// stackState is an immutable LIFO stack of integers; the back of items
// is the top.
type stackState struct {
	items ints
}

func (s stackState) Key() string { return string(s.items) }

// Stack is the sequential stack specification of §4: a history is admitted
// iff it is a well-defined sequential history over the empty initial stack
// (the paper's WFS). Every element is a singleton.
//
// With AllowContention set, the specification describes the *central* stack
// of Figure 2, whose one-shot operations may also fail under contention:
// push(v) ▷ false and pop() ▷ (false,0) are then admitted in any state as
// no-ops. Without it, pop() ▷ (false,0) is admitted only on the empty stack
// and push always succeeds — the client-facing elimination stack spec.
type Stack struct {
	Obj history.ObjectID
	// AllowContention admits failed push/pop singletons in any state.
	AllowContention bool
}

var (
	_ Spec            = Stack{}
	_ PendingResolver = Stack{}
)

// NewStack returns the LIFO stack specification for object o.
func NewStack(o history.ObjectID) Stack { return Stack{Obj: o} }

// NewCentralStack returns the specification of Figure 2's one-shot central
// stack, whose operations may fail under contention.
func NewCentralStack(o history.ObjectID) Stack {
	return Stack{Obj: o, AllowContention: true}
}

// Name implements Spec.
func (st Stack) Name() string {
	if st.AllowContention {
		return "central-stack(" + string(st.Obj) + ")"
	}
	return "stack(" + string(st.Obj) + ")"
}

// Object implements Spec.
func (st Stack) Object() history.ObjectID { return st.Obj }

// Init implements Spec.
func (st Stack) Init() State { return stackState{} }

// MaxElementSize implements Spec: the stack specification is sequential.
func (st Stack) MaxElementSize() int { return 1 }

// Step implements Spec.
func (st Stack) Step(s State, el trace.Element) (State, error) {
	if el.Object != st.Obj {
		return nil, fmt.Errorf("element on object %s, spec constrains %s", el.Object, st.Obj)
	}
	if len(el.Ops) != 1 {
		return nil, fmt.Errorf("stack elements are singletons, got %d operations", len(el.Ops))
	}
	ss, ok := s.(stackState)
	if !ok {
		return nil, fmt.Errorf("foreign state %T", s)
	}
	op := el.Ops[0]
	switch op.Method {
	case MethodPush:
		if op.Arg.Kind != history.KindInt || op.Ret.Kind != history.KindBool {
			return nil, fmt.Errorf("push must be int ▷ bool, got %s ▷ %s", op.Arg, op.Ret)
		}
		if !op.Ret.B {
			if !st.AllowContention {
				return nil, reject("push cannot fail in the abstract stack: %[1]s", el)
			}
			return ss, nil // contention failure: no-op
		}
		return stackState{ss.items.push(op.Arg.N)}, nil
	case MethodPop:
		if op.Arg.Kind != history.KindUnit || op.Ret.Kind != history.KindPair {
			return nil, fmt.Errorf("pop must be () ▷ (bool,int), got %s ▷ %s", op.Arg, op.Ret)
		}
		if !op.Ret.B {
			if op.Ret.N != 0 {
				return nil, reject("failed pop must return (false,0): %[1]s", el)
			}
			if st.AllowContention {
				return ss, nil // empty or contention: no-op
			}
			if ss.items != "" {
				return nil, &rejection{format: "pop may fail only on the empty stack, state [%[2]s]", state: ss.items}
			}
			return ss, nil
		}
		v, rest, nonEmpty := ss.items.back()
		if !nonEmpty {
			return nil, reject("successful pop on empty stack: %[1]s", el)
		}
		if v != op.Ret.N {
			return nil, &rejection{format: "pop returned %[3]d but top is %[4]d", n: op.Ret.N, m: v}
		}
		return stackState{rest}, nil
	default:
		return nil, fmt.Errorf("unknown method %s", op.Method)
	}
}

// ResolveReturns implements PendingResolver: a pending push may complete
// with true (or false under contention); a pending pop with the current top
// (or a failure when admitted).
func (st Stack) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	if len(ops) != 1 || len(pendingIdx) != 1 {
		return nil
	}
	ss, ok := s.(stackState)
	if !ok {
		return nil
	}
	var candidates []history.Value
	switch ops[0].Method {
	case MethodPush:
		candidates = append(candidates, history.Bool(true))
		if st.AllowContention {
			candidates = append(candidates, history.Bool(false))
		}
	case MethodPop:
		if v, _, nonEmpty := ss.items.back(); nonEmpty {
			candidates = append(candidates, history.Pair(true, v))
			if st.AllowContention {
				candidates = append(candidates, history.Pair(false, 0))
			}
		} else {
			candidates = append(candidates, history.Pair(false, 0))
		}
	}
	out := make([][]history.Value, len(candidates))
	for i, c := range candidates {
		out[i] = []history.Value{c}
	}
	return out
}

// PushElement builds the singleton S.{(t, push(v) ▷ ok)}.
func PushElement(o history.ObjectID, t history.ThreadID, v int64, ok bool) trace.Element {
	return trace.Singleton(trace.Operation{
		Thread: t, Object: o, Method: MethodPush,
		Arg: history.Int(v), Ret: history.Bool(ok),
	})
}

// PopElement builds the singleton S.{(t, pop() ▷ (ok,v))}.
func PopElement(o history.ObjectID, t history.ThreadID, ok bool, v int64) trace.Element {
	return trace.Singleton(trace.Operation{
		Thread: t, Object: o, Method: MethodPop,
		Arg: history.Unit(), Ret: history.Pair(ok, v),
	})
}
