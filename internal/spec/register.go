package spec

import (
	"fmt"
	"strconv"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// Methods of the register interface.
const (
	MethodRead  history.Method = "read"
	MethodWrite history.Method = "write"
)

// registerState is the current register value.
type registerState struct {
	v int64
}

func (r registerState) Key() string { return strconv.FormatInt(r.v, 10) }

// Register is the sequential atomic register specification: write(v) ▷ ()
// stores v and read(()) ▷ v returns the last written value (initially 0).
// It is the classic baseline for validating linearizability checkers.
type Register struct {
	Obj history.ObjectID
}

var (
	_ Spec            = Register{}
	_ PendingResolver = Register{}
)

// NewRegister returns the register specification for object o.
func NewRegister(o history.ObjectID) Register { return Register{Obj: o} }

// Name implements Spec.
func (r Register) Name() string { return "register(" + string(r.Obj) + ")" }

// Object implements Spec.
func (r Register) Object() history.ObjectID { return r.Obj }

// Init implements Spec.
func (r Register) Init() State { return registerState{} }

// MaxElementSize implements Spec.
func (r Register) MaxElementSize() int { return 1 }

// Step implements Spec.
func (r Register) Step(s State, el trace.Element) (State, error) {
	if el.Object != r.Obj {
		return nil, fmt.Errorf("element on object %s, spec constrains %s", el.Object, r.Obj)
	}
	if len(el.Ops) != 1 {
		return nil, fmt.Errorf("register elements are singletons, got %d operations", len(el.Ops))
	}
	rs, ok := s.(registerState)
	if !ok {
		return nil, fmt.Errorf("foreign state %T", s)
	}
	op := el.Ops[0]
	switch op.Method {
	case MethodWrite:
		if op.Arg.Kind != history.KindInt || op.Ret.Kind != history.KindUnit {
			return nil, fmt.Errorf("write must be int ▷ (), got %s ▷ %s", op.Arg, op.Ret)
		}
		return registerState{v: op.Arg.N}, nil
	case MethodRead:
		if op.Arg.Kind != history.KindUnit || op.Ret.Kind != history.KindInt {
			return nil, fmt.Errorf("read must be () ▷ int, got %s ▷ %s", op.Arg, op.Ret)
		}
		if op.Ret.N != rs.v {
			return nil, &rejection{format: "read returned %[3]d but register holds %[4]d", n: op.Ret.N, m: rs.v}
		}
		return rs, nil
	default:
		return nil, fmt.Errorf("unknown method %s", op.Method)
	}
}

// ResolveReturns implements PendingResolver.
func (r Register) ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	if len(ops) != 1 || len(pendingIdx) != 1 {
		return nil
	}
	rs, ok := s.(registerState)
	if !ok {
		return nil
	}
	switch ops[0].Method {
	case MethodWrite:
		return [][]history.Value{{history.Unit()}}
	case MethodRead:
		return [][]history.Value{{history.Int(rs.v)}}
	}
	return nil
}
