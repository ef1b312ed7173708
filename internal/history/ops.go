package history

import "fmt"

// Op is an operation of a concurrent object: an invocation paired with its
// matching response (Definition 4's OP(H, i)). A pending operation (an
// invocation with no response) has Pending == true and a zero Ret.
type Op struct {
	Thread ThreadID
	Object ObjectID
	Method Method
	Arg    Value
	Ret    Value
	// InvIndex and ResIndex locate the operation's actions within the
	// history it was extracted from; ResIndex is -1 for pending operations.
	InvIndex int
	ResIndex int
	Pending  bool
}

// String renders the operation in the paper's notation (t, f(n) ▷ n').
func (op Op) String() string {
	if op.Pending {
		return fmt.Sprintf("(%s, %s.%s(%s) ▷ ?)", op.Thread, op.Object, op.Method, op.Arg)
	}
	return fmt.Sprintf("(%s, %s.%s(%s) ▷ %s)", op.Thread, op.Object, op.Method, op.Arg, op.Ret)
}

// Operations extracts the operations of the well-formed history h, in order
// of invocation. Pending invocations yield operations with Pending set.
func (h History) Operations() []Op {
	var ops []Op
	if len(h) > 0 {
		// Two events per complete operation, plus a trailing pending one.
		ops = make([]Op, 0, (len(h)+1)/2)
	}
	open := make(map[ThreadID]int) // thread -> index into ops
	for i := range h {
		e := &h[i]
		switch e.Kind {
		case Invoke:
			open[e.Thread] = len(ops)
			ops = append(ops, Op{
				Thread:   e.Thread,
				Object:   e.Object,
				Method:   e.Method,
				Arg:      e.Arg,
				InvIndex: i,
				ResIndex: -1,
				Pending:  true,
			})
		case Respond:
			if j, ok := open[e.Thread]; ok {
				ops[j].Ret = e.Ret
				ops[j].ResIndex = i
				ops[j].Pending = false
				delete(open, e.Thread)
			}
		}
	}
	return ops
}

// PrecedesRT reports whether operation a really precedes operation b in the
// real-time order ≺H (Definition 3): a's response occurs before b's
// invocation. A pending operation never precedes anything; every operation
// whose response precedes a pending operation's invocation precedes it.
func PrecedesRT(a, b Op) bool { return precedesRT(&a, &b) }

// precedesRT is PrecedesRT on pointers, so that RTOrder's n² tests copy no
// Op.
func precedesRT(a, b *Op) bool {
	return !a.Pending && a.ResIndex < b.InvIndex
}

// RTOrder computes the real-time order over the given operations as an
// adjacency matrix: order[i][j] is true iff ops[i] ≺H ops[j]. The rows
// share one n×n backing array. It is the reference definition of ≺H for
// tests; the checker does not build it, because each thread's operations
// form a chain under ≺H and one head per thread gives it the same facts.
func RTOrder(ops []Op) [][]bool {
	n := len(ops)
	order := make([][]bool, n)
	cells := make([]bool, n*n)
	for i := range order {
		row := cells[i*n : (i+1)*n : (i+1)*n]
		for j := range row {
			row[j] = i != j && precedesRT(&ops[i], &ops[j])
		}
		order[i] = row
	}
	return order
}

// FromOps reconstructs a complete history from operations laid out so that
// each operation's actions appear at its recorded indices. It is the inverse
// of Operations for complete histories and is mainly useful for building
// test fixtures: pass operations with fresh InvIndex/ResIndex positions and
// the events are placed accordingly.
func FromOps(ops []Op) (History, error) {
	max := -1
	for _, op := range ops {
		if op.Pending {
			if op.InvIndex > max {
				max = op.InvIndex
			}
			continue
		}
		if op.ResIndex <= op.InvIndex {
			return nil, fmt.Errorf("history: op %v has ResIndex <= InvIndex", op)
		}
		if op.ResIndex > max {
			max = op.ResIndex
		}
	}
	slots := make([]*Event, max+1)
	place := func(i int, e Event) error {
		if i < 0 || i >= len(slots) {
			return fmt.Errorf("history: index %d out of range", i)
		}
		if slots[i] != nil {
			return fmt.Errorf("history: index %d used twice", i)
		}
		slots[i] = &e
		return nil
	}
	for _, op := range ops {
		if err := place(op.InvIndex, Inv(op.Thread, op.Object, op.Method, op.Arg)); err != nil {
			return nil, err
		}
		if !op.Pending {
			if err := place(op.ResIndex, Res(op.Thread, op.Object, op.Method, op.Ret)); err != nil {
				return nil, err
			}
		}
	}
	var h History
	for _, s := range slots {
		if s != nil {
			h = append(h, *s)
		}
	}
	if !h.IsWellFormed() {
		return nil, fmt.Errorf("history: FromOps produced an ill-formed history")
	}
	return h, nil
}
