package spec

import (
	"fmt"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// Methods of the set interface.
const (
	MethodAdd      history.Method = "add"
	MethodRemove   history.Method = "remove"
	MethodContains history.Method = "contains"
)

// setState is an immutable integer set; items holds the members in
// ascending order.
type setState struct {
	items ints
}

func (s setState) Key() string { return string(s.items) }

// Set is the sequential integer-set specification: add(v) ▷ b with b true
// iff v was absent (and is now a member), remove(v) ▷ b with b true iff v
// was present (and is now removed), contains(v) ▷ b reporting membership.
// Every element is a singleton. Unambiguous set histories (each value added
// at most once) admit the log-linear specialized monitor in
// calgo/internal/monitor.
type Set struct {
	Obj history.ObjectID
}

var (
	_ Spec            = Set{}
	_ PendingResolver = Set{}
)

// NewSet returns the integer-set specification for object o.
func NewSet(o history.ObjectID) Set { return Set{Obj: o} }

// Name implements Spec.
func (st Set) Name() string { return "set(" + string(st.Obj) + ")" }

// Object implements Spec.
func (st Set) Object() history.ObjectID { return st.Obj }

// Init implements Spec.
func (st Set) Init() State { return setState{} }

// MaxElementSize implements Spec: the set specification is sequential.
func (st Set) MaxElementSize() int { return 1 }

// Step implements Spec.
func (st Set) Step(s State, el trace.Element) (State, error) {
	if el.Object != st.Obj {
		return nil, fmt.Errorf("element on object %s, spec constrains %s", el.Object, st.Obj)
	}
	if len(el.Ops) != 1 {
		return nil, fmt.Errorf("set elements are singletons, got %d operations", len(el.Ops))
	}
	ss, ok := s.(setState)
	if !ok {
		return nil, fmt.Errorf("foreign state %T", s)
	}
	op := el.Ops[0]
	if op.Arg.Kind != history.KindInt || op.Ret.Kind != history.KindBool {
		return nil, fmt.Errorf("set methods are int ▷ bool, got %s ▷ %s", op.Arg, op.Ret)
	}
	v, ret := op.Arg.N, op.Ret.B
	member := ss.items.has(v)
	switch op.Method {
	case MethodAdd:
		if ret && !member {
			return setState{ss.items.insert(v)}, nil
		}
		if !ret && member {
			return ss, nil
		}
	case MethodRemove:
		if ret && member {
			return setState{ss.items.remove(v)}, nil
		}
		if !ret && !member {
			return ss, nil
		}
	case MethodContains:
		if ret == member {
			return ss, nil
		}
	default:
		return nil, fmt.Errorf("unknown method %s", op.Method)
	}
	return nil, &rejection{format: "%[1]s contradicts the set [%[2]s]", el: el, state: ss.items}
}

// ResolveReturns implements PendingResolver: pending set operations
// complete with the return value determined by the current state.
func (st Set) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	if len(ops) != 1 || len(pendingIdx) != 1 {
		return nil
	}
	ss, ok := s.(setState)
	if !ok {
		return nil
	}
	if ops[0].Arg.Kind != history.KindInt {
		return nil
	}
	v := ops[0].Arg.N
	switch ops[0].Method {
	case MethodAdd:
		return [][]history.Value{{history.Bool(!ss.items.has(v))}}
	case MethodRemove, MethodContains:
		return [][]history.Value{{history.Bool(ss.items.has(v))}}
	}
	return nil
}
