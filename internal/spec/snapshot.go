package spec

import (
	"encoding/binary"
	"fmt"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// MethodUpdate is the single method of the immediate snapshot interface.
const MethodUpdate history.Method = "update"

// Snapshot is the CA-specification of the one-shot immediate atomic
// snapshot object of Borowsky and Gafni — the example Neiger used to
// motivate set-linearizability, discussed in the paper's related work
// (§6). Each participating thread calls update(v) once; operations are
// grouped into "blocks" that seem to take effect simultaneously, and every
// operation returns the view containing the values of all blocks up to and
// including its own:
//
//   - containment: views of consecutive blocks grow monotonically;
//   - self-inclusion: each operation's own value is in its view;
//   - immediacy: operations of the same block return the SAME view.
//
// A CA-element is a block: a set of update operations that take effect
// simultaneously. Unlike the exchanger, blocks may have any size up to the
// number of threads, which exercises the checker's wide-element search.
//
// Histories record each operation's view by its CARDINALITY: update(v) ▷
// (true, |view|). Because every thread writes exactly once, the
// cardinality bookkeeping over ordered blocks captures containment and
// immediacy at the history level (an op's cardinality must equal the
// cumulative operation count through its own block); the value-level view
// properties are checked directly against the implementation's full views
// by its tests, out of band of the small history value universe.
type Snapshot struct {
	Obj history.ObjectID
	// Threads bounds the number of participants (and hence the maximal
	// block size).
	Threads int
}

var _ Spec = Snapshot{}

// NewSnapshot returns the immediate snapshot specification for object o
// with at most n participating threads.
func NewSnapshot(o history.ObjectID, n int) Snapshot {
	return Snapshot{Obj: o, Threads: n}
}

// snapshotState holds the values written so far and the threads that
// already updated (one-shot), each in ascending order, and the number of
// values.
type snapshotState struct {
	values, threads ints
	count           int
}

// Key length-prefixes the values, so it splits between the two sequences
// in one way only.
func (s snapshotState) Key() string {
	var buf [binary.MaxVarintLen64]byte
	return string(binary.AppendUvarint(buf[:0], uint64(len(s.values)))) + string(s.values) + string(s.threads)
}

// Name implements Spec.
func (sp Snapshot) Name() string { return "snapshot(" + string(sp.Obj) + ")" }

// Object implements Spec.
func (sp Snapshot) Object() history.ObjectID { return sp.Obj }

// Init implements Spec.
func (sp Snapshot) Init() State { return snapshotState{} }

// MaxElementSize implements Spec: a block can contain every thread.
func (sp Snapshot) MaxElementSize() int {
	if sp.Threads < 1 {
		return 1
	}
	return sp.Threads
}

// Step implements Spec. The element is a block; every operation must be a
// first-time update whose returned view cardinality equals the state's
// count plus the block size (containment + immediacy + self-inclusion all
// follow from cardinality bookkeeping because each thread writes once).
func (sp Snapshot) Step(s State, el trace.Element) (State, error) {
	if el.Object != sp.Obj {
		return nil, fmt.Errorf("element on object %s, spec constrains %s", el.Object, sp.Obj)
	}
	ss, ok := s.(snapshotState)
	if !ok {
		return nil, fmt.Errorf("foreign state %T", s)
	}
	if len(el.Ops) > sp.MaxElementSize() {
		return nil, fmt.Errorf("block of %d operations exceeds %d threads", len(el.Ops), sp.Threads)
	}
	next := snapshotState{values: ss.values, threads: ss.threads, count: ss.count + len(el.Ops)}
	for k, op := range el.Ops {
		if op.Method != MethodUpdate {
			return nil, fmt.Errorf("unknown method %s", op.Method)
		}
		if op.Arg.Kind != history.KindInt {
			return nil, fmt.Errorf("update argument must be an int, got %s", op.Arg)
		}
		one := trace.Element{Object: el.Object, Ops: el.Ops[k : k+1]}
		if next.threads.has(int64(op.Thread)) {
			return nil, reject("the thread of %[1]s updated twice (one-shot object)", one)
		}
		if op.Ret != history.Pair(true, int64(next.count)) {
			return nil, &rejection{format: "operation %[1]s returned a view of another cardinality, block requires %[3]d (immediacy)",
				el: one, n: int64(next.count)}
		}
		next.values = next.values.insert(op.Arg.N)
		next.threads = next.threads.insert(int64(op.Thread))
	}
	return next, nil
}

// BlockElement builds a snapshot block element: ops[i] = (thread, value);
// every operation returns (true, prior+len(ops)).
func BlockElement(o history.ObjectID, prior int, pairs ...[2]int64) trace.Element {
	card := int64(prior + len(pairs))
	ops := make([]trace.Operation, len(pairs))
	for i, p := range pairs {
		ops[i] = trace.Operation{
			Thread: history.ThreadID(p[0]), Object: o, Method: MethodUpdate,
			Arg: history.Int(p[1]), Ret: history.Pair(true, card),
		}
	}
	return trace.MustElement(ops...)
}
