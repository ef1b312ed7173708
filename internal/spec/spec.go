// Package spec defines concurrency-aware specifications: prefix-closed sets
// of CA-traces (Definition 6 of the paper), represented as state machines
// over CA-elements. Classical sequential specifications are the special case
// in which every admitted element is a singleton.
//
// The package provides the specifications used in the paper — the exchanger
// (§4), the elimination array (§5), the stack specification WFS (§4), and
// the synchronous queue client ([9], [22]) — plus a FIFO queue and an atomic
// register for cross-validation of the checkers, and a product combinator
// for histories spanning several independent objects.
package spec

import (
	"fmt"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// State is an immutable specification state. Key must be canonical: two
// states are interchangeable if and only if their keys are equal. The
// checkers use keys for memoization.
type State interface {
	Key() string
}

// Spec is a concurrency-aware specification: the set of CA-traces accepted
// by running Step from Init over the trace's elements. Prefix closure holds
// by construction.
type Spec interface {
	// Name identifies the specification in diagnostics.
	Name() string
	// Object is the object constrained by this specification. Product
	// specifications return the empty ObjectID.
	Object() history.ObjectID
	// Init returns the initial state.
	Init() State
	// Step validates appending element e in state s, returning the
	// successor state, or an error describing why e is not admitted.
	Step(s State, e trace.Element) (State, error)
	// MaxElementSize bounds the number of operations in any admitted
	// CA-element. Sequential specifications return 1; the exchanger
	// returns 2.
	MaxElementSize() int
}

// PendingResolver is implemented by specifications that can propose return
// values for pending operations, enabling the checker to explore the
// "extend with responses" half of completion (Definition 2). Given the
// operations of a candidate CA-element, some of which have unknown (zero)
// returns, ResolveReturns proposes complete return assignments for the
// unknown positions; each proposal is a slice parallel to pendingIdx.
type PendingResolver interface {
	ResolveReturns(s State, ops []trace.Operation, pendingIdx []int) [][]history.Value
}

// Accepts reports whether the full trace tr is admitted by sp, returning
// the final state on success.
func Accepts(sp Spec, tr trace.Trace) (State, error) {
	s := sp.Init()
	for i, e := range tr {
		next, err := sp.Step(s, e)
		if err != nil {
			return nil, fmt.Errorf("spec %s: element %d (%s): %w", sp.Name(), i+1, e, err)
		}
		s = next
	}
	return s, nil
}

// emptyState is the state of stateless specifications.
type emptyState struct{}

func (emptyState) Key() string { return "" }

// Empty returns the canonical stateless State.
func Empty() State { return emptyState{} }

// handOff checks the pair el as a hand-off: give(v) ▷ true passes v to
// recv() ▷ (true,v), and both seem to take effect at once. It is the sync
// queue's put/take rendezvous and the dual structures' fulfilment; each
// spec applies its own state condition on top.
func handOff(el trace.Element, give, recv history.Method) error {
	g, r := el.Ops[0], el.Ops[1]
	if g.Method != give {
		g, r = r, g
	}
	if g.Method != give || r.Method != recv {
		return reject("a hand-off pairs one giving with one receiving operation: %[1]s", el)
	}
	if g.Arg.Kind != history.KindInt || g.Ret != history.Bool(true) {
		return reject("a hand-off's giving operation must be int ▷ true: %[1]s", el)
	}
	if r.Ret != history.Pair(true, g.Arg.N) {
		return &rejection{format: "a hand-off's receiver must return the given value %[3]d: %[1]s", el: el, n: g.Arg.N}
	}
	return nil
}

// resolveHandOff completes the pending operations of a hand-off pair: the
// give operation returns true and its partner (true, v), v being the
// give's argument.
func resolveHandOff(ops []trace.Operation, pendingIdx []int, give history.Method) [][]history.Value {
	var v history.Value
	for _, op := range ops {
		if op.Method == give {
			v = op.Arg
		}
	}
	if v.IsZero() {
		return nil
	}
	rets := make([]history.Value, 0, len(pendingIdx))
	for _, i := range pendingIdx {
		if ops[i].Method == give {
			rets = append(rets, history.Bool(true))
		} else {
			rets = append(rets, history.Pair(true, v.N))
		}
	}
	return [][]history.Value{rets}
}
