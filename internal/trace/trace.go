// Package trace implements concurrency-aware traces (Definition 4 of the
// paper) and the agreement relation H ⊑CAL T between complete histories and
// CA-traces (Definition 5). A CA-trace is a sequence of CA-elements, each
// pairing an object with a non-empty set of operations that "seem to take
// effect simultaneously".
//
// Definition 5's surjection needs no search. A thread's operations are
// totally ordered by ≺H and a CA-element holds at most one operation per
// thread, so thread t's k-th operation can only go to the k-th element
// that mentions t. Assign builds that one candidate, and Agrees checks it
// in time linear in the history and the trace.
package trace

import (
	"encoding/binary"
	"fmt"
	"strings"

	"calgo/internal/history"
)

// Operation is a completed operation (t, f(n) ▷ n') of an object
// (Definition 4). It is a comparable value type.
type Operation struct {
	Thread history.ThreadID
	Object history.ObjectID
	Method history.Method
	Arg    history.Value
	Ret    history.Value
}

// String renders the operation in the paper's notation.
func (op Operation) String() string {
	return fmt.Sprintf("(%s, %s(%s) ▷ %s)", op.Thread, op.Method, op.Arg, op.Ret)
}

// less is an arbitrary total order used to canonicalize operation sets.
func (op Operation) less(other Operation) bool {
	if op.Thread != other.Thread {
		return op.Thread < other.Thread
	}
	if op.Object != other.Object {
		return op.Object < other.Object
	}
	if op.Method != other.Method {
		return op.Method < other.Method
	}
	if op.Arg != other.Arg {
		return valueLess(op.Arg, other.Arg)
	}
	return valueLess(op.Ret, other.Ret)
}

func valueLess(a, b history.Value) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.B != b.B {
		return !a.B
	}
	return a.N < b.N
}

// OpOf converts a completed history operation to a trace Operation.
func OpOf(op history.Op) Operation {
	return Operation{
		Thread: op.Thread,
		Object: op.Object,
		Method: op.Method,
		Arg:    op.Arg,
		Ret:    op.Ret,
	}
}

// Element is a CA-element o.S: a non-empty set of operations of a single
// object o (Definition 4). Elements are kept canonical: Ops is sorted and
// duplicate-free, and every operation's Object equals Object.
type Element struct {
	Object history.ObjectID
	Ops    []Operation
}

// NewElement builds a canonical CA-element from the given operations. It
// returns an error if the set is empty, contains duplicates, mixes objects,
// or contains two operations of the same thread (operations of one thread
// can never overlap).
func NewElement(ops ...Operation) (Element, error) {
	if len(ops) == 0 {
		return Element{}, fmt.Errorf("trace: empty CA-element")
	}
	sorted := append([]Operation(nil), ops...)
	// Elements are tiny (bounded by the spec's MaxElementSize), so an
	// insertion sort avoids sort.Slice's reflection machinery on what is
	// the checker's innermost loop.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].less(sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	o := sorted[0].Object
	for i, op := range sorted {
		if op.Object != o {
			return Element{}, fmt.Errorf("trace: CA-element mixes objects %s and %s", o, op.Object)
		}
		if i > 0 && sorted[i-1] == op {
			return Element{}, fmt.Errorf("trace: duplicate operation %v in CA-element", op)
		}
		// Sorting is thread-major, so same-thread operations are adjacent.
		if i > 0 && sorted[i-1].Thread == op.Thread {
			return Element{}, fmt.Errorf("trace: two operations of thread %s in one CA-element", op.Thread)
		}
	}
	return Element{Object: o, Ops: sorted}, nil
}

// MustElement is NewElement for statically-known-valid inputs; it panics on
// error and is intended for tests and package-internal literals.
func MustElement(ops ...Operation) Element {
	e, err := NewElement(ops...)
	if err != nil {
		panic(err)
	}
	return e
}

// Singleton builds the CA-element o.{op} for a single operation.
func Singleton(op Operation) Element {
	return Element{Object: op.Object, Ops: []Operation{op}}
}

// Size returns the number of operations in the element.
func (e Element) Size() int { return len(e.Ops) }

// Mentions reports whether the element contains an operation of thread t.
func (e Element) Mentions(t history.ThreadID) bool {
	for _, op := range e.Ops {
		if op.Thread == t {
			return true
		}
	}
	return false
}

// Equal reports whether two canonical elements are equal.
func (e Element) Equal(f Element) bool {
	if e.Object != f.Object || len(e.Ops) != len(f.Ops) {
		return false
	}
	for i := range e.Ops {
		if e.Ops[i] != f.Ops[i] {
			return false
		}
	}
	return true
}

// String renders the element in the paper's notation o.{op1, ..., opk}.
func (e Element) String() string {
	parts := make([]string, len(e.Ops))
	for i, op := range e.Ops {
		parts[i] = op.String()
	}
	return string(e.Object) + ".{" + strings.Join(parts, ", ") + "}"
}

// AppendElement appends an exact, self-delimiting binary encoding of e
// to b: its object, its operation count, and each operation's thread,
// method, argument and result in the history package's encodings.
// Operations are encoded without their object, which every operation of
// a canonical element shares with it. Canonical elements are equal iff
// their encodings are.
func AppendElement(b []byte, e Element) []byte {
	b = history.AppendString(b, string(e.Object))
	b = binary.AppendUvarint(b, uint64(len(e.Ops)))
	for _, op := range e.Ops {
		b = binary.AppendVarint(b, int64(op.Thread))
		b = history.AppendString(b, string(op.Method))
		b = history.AppendValue(b, op.Arg)
		b = history.AppendValue(b, op.Ret)
	}
	return b
}

// Trace is a CA-trace: a sequence of CA-elements (Definition 4).
type Trace []Element

// ByThread returns T|t, the subsequence of CA-elements mentioning thread t.
// Note that the projection returns not only the operations of t but all
// operations of other threads concurrent with some operation of t.
func (tr Trace) ByThread(t history.ThreadID) Trace {
	var out Trace
	for _, e := range tr {
		if e.Mentions(t) {
			out = append(out, e)
		}
	}
	return out
}

// ByObject returns T|o, the subsequence of CA-elements of object o.
func (tr Trace) ByObject(o history.ObjectID) Trace {
	var out Trace
	for _, e := range tr {
		if e.Object == o {
			out = append(out, e)
		}
	}
	return out
}

// Operations returns all operations of the trace in element order.
func (tr Trace) Operations() []Operation {
	var out []Operation
	for _, e := range tr {
		out = append(out, e.Ops...)
	}
	return out
}

// Equal reports element-wise equality of two traces.
func (tr Trace) Equal(other Trace) bool {
	if len(tr) != len(other) {
		return false
	}
	for i := range tr {
		if !tr[i].Equal(other[i]) {
			return false
		}
	}
	return true
}

// String renders the trace as element · element · ...
func (tr Trace) String() string {
	if len(tr) == 0 {
		return "ε"
	}
	parts := make([]string, len(tr))
	for i, e := range tr {
		parts[i] = e.String()
	}
	return strings.Join(parts, " · ")
}
