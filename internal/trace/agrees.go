package trace

import (
	"fmt"

	"calgo/internal/history"
)

// Assign maps the slots of tr onto ops: Assign(ops, tr)[k][s] is the index
// into ops of the operation that slot s of tr[k] absorbs, or -1 when the
// slot's thread has no operation left for it. Thread t's k-th operation (in
// the order of ops) goes to the k-th slot of thread t in element order. It
// checks nothing: the values, the counts and the real-time order are the
// caller's to confirm.
//
// For a well-formed history this is the only candidate for Definition 5's
// surjection. A thread's operations are totally ordered by ≺H, so the
// surjection must send them to strictly increasing elements, and a
// CA-element holds at most one operation per thread.
func Assign(ops []history.Op, tr Trace) [][]int {
	// next[i] is the index of the operation of ops[i]'s thread after
	// ops[i], or -1; head[t] is thread t's first operation not yet assigned.
	next := make([]int, len(ops))
	head := make(map[history.ThreadID]int)
	for i := len(ops) - 1; i >= 0; i-- {
		next[i] = -1
		if j, ok := head[ops[i].Thread]; ok {
			next[i] = j
		}
		head[ops[i].Thread] = i
	}
	slots := 0
	for _, e := range tr {
		slots += len(e.Ops)
	}
	backing := make([]int, slots)
	out := make([][]int, len(tr))
	for k, e := range tr {
		idx := backing[:len(e.Ops):len(e.Ops)]
		backing = backing[len(e.Ops):]
		for s, op := range e.Ops {
			idx[s] = -1
			if i, ok := head[op.Thread]; ok && i >= 0 {
				idx[s] = i
				head[op.Thread] = next[i]
			}
		}
		out[k] = idx
	}
	return out
}

// Agrees decides H ⊑CAL T (Definition 5): whether there is a surjection π
// from the operations of the complete history h onto the element indices of
// tr such that (i) the real-time order of h is preserved (i ≺H j implies
// π(i) < π(j)) and (ii) every CA-element of tr is exactly the set of
// operations mapped to it. It returns nil if h agrees with tr and an error
// naming the element, the thread and the operations at fault otherwise.
//
// The surjection is forced (see Assign), so Agrees checks that one
// candidate instead of searching: every slot absorbs an operation equal to
// the element's, and one walk over the history's events confirms ≺H. It
// runs in time linear in the history and the trace.
func Agrees(h history.History, tr Trace) error {
	if !h.IsWellFormed() {
		return fmt.Errorf("trace: history is not well-formed")
	}
	ops := h.Operations()
	var pending []history.ThreadID
	for _, op := range ops {
		if op.Pending {
			pending = append(pending, op.Thread)
		}
	}
	if len(pending) > 0 {
		return fmt.Errorf("trace: agreement is defined on complete histories; history has pending invocations %v", pending)
	}
	total := 0
	for _, e := range tr {
		total += e.Size()
	}
	if total != len(ops) {
		return fmt.Errorf("trace: history has %d operations but trace has %d", len(ops), total)
	}

	// With the counts equal and every slot filled, every operation is
	// absorbed exactly once.
	elem := make([]int, len(ops)) // the element absorbing each operation
	for k, idx := range Assign(ops, tr) {
		for s, i := range idx {
			want := tr[k].Ops[s]
			if i < 0 {
				return fmt.Errorf("trace: element %d of %d holds %v, but thread %s has no operation left for it",
					k+1, len(tr), want, want.Thread)
			}
			if OpOf(ops[i]) != want {
				return fmt.Errorf("trace: element %d of %d holds %v, but thread %s's operation there is %v",
					k+1, len(tr), want, want.Thread, ops[i])
			}
			elem[i] = k
		}
	}

	// ≺H: when an operation is invoked, every operation that has already
	// responded must sit in a strictly earlier element. last is the
	// responded operation whose element comes latest.
	at := make([]int, len(h)) // the operation each event belongs to
	for i, op := range ops {
		at[op.InvIndex], at[op.ResIndex] = i, i
	}
	last := -1
	for ev, i := range at {
		switch {
		case ev == ops[i].InvIndex:
			if last >= 0 && elem[last] >= elem[i] {
				return fmt.Errorf("trace: real-time order violated: %v (element %d of %d) responded before %v (element %d) was invoked",
					ops[last], elem[last]+1, len(tr), ops[i], elem[i]+1)
			}
		case last < 0 || elem[i] > elem[last]:
			last = i
		}
	}
	return nil
}
