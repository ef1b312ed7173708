package spec

import (
	"fmt"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// Methods of the synchronous queue interface.
const (
	MethodPut  history.Method = "put"
	MethodTake history.Method = "take"
)

// SyncQueue is the CA-specification of a synchronous (hand-off) queue, the
// second exchanger client discussed by the paper ([9], [22]): a put and a
// take must "seem to take effect simultaneously". Admitted elements are
//
//   - a hand-off Q.{(t, put(v) ▷ true), (t', take(()) ▷ (true,v))}, t ≠ t',
//   - a failed (timed-out) put singleton Q.{(t, put(v) ▷ false)}, and
//   - a failed take singleton Q.{(t, take(()) ▷ (false,0))}.
//
// Like the exchanger, a successful operation can never stand alone — which
// is exactly why the object has no useful sequential specification.
type SyncQueue struct {
	Obj history.ObjectID
}

var (
	_ Spec            = SyncQueue{}
	_ PendingResolver = SyncQueue{}
)

// NewSyncQueue returns the synchronous queue specification for object o.
func NewSyncQueue(o history.ObjectID) SyncQueue { return SyncQueue{Obj: o} }

// Name implements Spec.
func (q SyncQueue) Name() string { return "syncqueue(" + string(q.Obj) + ")" }

// Object implements Spec.
func (q SyncQueue) Object() history.ObjectID { return q.Obj }

// Init implements Spec.
func (q SyncQueue) Init() State { return Empty() }

// MaxElementSize implements Spec.
func (q SyncQueue) MaxElementSize() int { return 2 }

// Step implements Spec.
func (q SyncQueue) Step(s State, el trace.Element) (State, error) {
	if el.Object != q.Obj {
		return nil, fmt.Errorf("element on object %s, spec constrains %s", el.Object, q.Obj)
	}
	switch len(el.Ops) {
	case 1:
		op := el.Ops[0]
		switch op.Method {
		case MethodPut:
			if op.Arg.Kind != history.KindInt || op.Ret.Kind != history.KindBool {
				return nil, fmt.Errorf("put must be int ▷ bool, got %s ▷ %s", op.Arg, op.Ret)
			}
			if op.Ret.B {
				return nil, reject("a successful put cannot stand alone: %[1]s", el)
			}
			return s, nil
		case MethodTake:
			if op.Arg.Kind != history.KindUnit || op.Ret.Kind != history.KindPair {
				return nil, fmt.Errorf("take must be () ▷ (bool,int), got %s ▷ %s", op.Arg, op.Ret)
			}
			if op.Ret.B {
				return nil, reject("a successful take cannot stand alone: %[1]s", el)
			}
			if op.Ret.N != 0 {
				return nil, reject("failed take must return (false,0): %[1]s", el)
			}
			return s, nil
		default:
			return nil, fmt.Errorf("unknown method %s", op.Method)
		}
	case 2:
		if err := handOff(el, MethodPut, MethodTake); err != nil {
			return nil, err
		}
		return s, nil
	default:
		return nil, fmt.Errorf("synchronous queue elements have one or two operations, got %d", len(el.Ops))
	}
}

// ResolveReturns implements PendingResolver.
func (q SyncQueue) ResolveReturns(_ State, ops []trace.Operation, pendingIdx []int) [][]history.Value {
	switch len(ops) {
	case 1:
		op := ops[0]
		if op.Method == MethodPut {
			return [][]history.Value{{history.Bool(false)}}
		}
		return [][]history.Value{{history.Pair(false, 0)}}
	case 2:
		return resolveHandOff(ops, pendingIdx, MethodPut)
	default:
		return nil
	}
}

// HandOffElement builds the pair element of a successful put/take rendezvous.
func HandOffElement(o history.ObjectID, putter history.ThreadID, v int64, taker history.ThreadID) trace.Element {
	return trace.MustElement(
		trace.Operation{Thread: putter, Object: o, Method: MethodPut, Arg: history.Int(v), Ret: history.Bool(true)},
		trace.Operation{Thread: taker, Object: o, Method: MethodTake, Arg: history.Unit(), Ret: history.Pair(true, v)},
	)
}
