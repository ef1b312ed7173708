package history

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestOperations(t *testing.T) {
	h := fig3H1()
	ops := h.Operations()
	if len(ops) != 3 {
		t.Fatalf("got %d operations, want 3", len(ops))
	}
	want0 := Op{Thread: 1, Object: objE, Method: exch, Arg: Int(3), Ret: Pair(true, 4), InvIndex: 0, ResIndex: 3}
	if ops[0] != want0 {
		t.Errorf("ops[0] = %+v, want %+v", ops[0], want0)
	}
	for _, op := range ops {
		if op.Pending {
			t.Errorf("complete history produced pending op %v", op)
		}
	}
	if cap(ops) != len(ops) {
		t.Errorf("cap(ops) = %d, want %d: the slice is sized from the history once", cap(ops), len(ops))
	}
	if ops := History(nil).Operations(); ops != nil {
		t.Errorf("empty history: got %v, want nil", ops)
	}
}

func TestOperationsPending(t *testing.T) {
	h := History{
		Inv(1, objE, exch, Int(3)),
		Inv(2, objE, exch, Int(4)),
		Res(2, objE, exch, Pair(true, 3)),
	}
	ops := h.Operations()
	if len(ops) != 2 {
		t.Fatalf("got %d ops, want 2", len(ops))
	}
	if !ops[0].Pending || ops[0].ResIndex != -1 {
		t.Errorf("t1's op should be pending: %+v", ops[0])
	}
	if ops[1].Pending {
		t.Errorf("t2's op should be complete: %+v", ops[1])
	}
}

func TestPrecedesRTAndConcurrent(t *testing.T) {
	// H2: t1, t2 overlap; t3 runs strictly after both.
	ops := fig3H2().Operations()
	t1op, t2op, t3op := ops[0], ops[1], ops[2]
	if PrecedesRT(t1op, t2op) || PrecedesRT(t2op, t1op) {
		t.Error("t1 and t2 should be concurrent in H2: neither precedes the other")
	}
	if !PrecedesRT(t1op, t3op) || !PrecedesRT(t2op, t3op) {
		t.Error("t1 and t2 should precede t3 in H2")
	}
	if PrecedesRT(t3op, t1op) {
		t.Error("t3 must not precede t1")
	}
	// H1: everything overlaps.
	ops1 := fig3H1().Operations()
	for i := range ops1 {
		for j := range ops1 {
			if PrecedesRT(ops1[i], ops1[j]) {
				t.Errorf("op %d should not precede op %d in H1: all overlap", i, j)
			}
		}
	}
	// H3: total order.
	ops3 := fig3H3().Operations()
	if !PrecedesRT(ops3[0], ops3[1]) || !PrecedesRT(ops3[1], ops3[2]) || !PrecedesRT(ops3[0], ops3[2]) {
		t.Error("H3 should be totally ordered")
	}
}

func TestPendingNeverPrecedes(t *testing.T) {
	h := History{
		Inv(1, objE, exch, Int(3)),
		Inv(2, objE, exch, Int(4)),
		Res(2, objE, exch, Pair(false, 4)),
		Inv(3, objE, exch, Int(5)),
	}
	ops := h.Operations()
	pending1 := ops[0]
	done2 := ops[1]
	pending3 := ops[2]
	if PrecedesRT(pending1, done2) || PrecedesRT(pending1, pending3) {
		t.Error("pending operations must not precede anything")
	}
	if !PrecedesRT(done2, pending3) {
		t.Error("completed op must precede a later pending op")
	}
}

func TestRTOrderMatrix(t *testing.T) {
	ops := fig3H2().Operations()
	m := RTOrder(ops)
	want := [][]bool{
		{false, false, true},
		{false, false, true},
		{false, false, false},
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("RTOrder = %v, want %v", m, want)
	}
}

func TestRTOrderIsIrreflexivePartialOrder_Quick(t *testing.T) {
	// Generate random well-formed histories and check ≺H is an irreflexive
	// partial order (transitive via interval semantics).
	f := func(seed int64) bool {
		h := randomHistory(seed, 4, 8)
		ops := h.Operations()
		m := RTOrder(ops)
		n := len(ops)
		for i := 0; i < n; i++ {
			if m[i][i] {
				return false
			}
			for j := 0; j < n; j++ {
				if m[i][j] && m[j][i] {
					return false // antisymmetry
				}
				for k := 0; k < n; k++ {
					if m[i][j] && m[j][k] && !m[i][k] {
						return false // transitivity
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomHistory builds a pseudo-random well-formed history with up to
// maxThreads threads and maxOps operations, derived deterministically from
// seed. Used by several property tests.
func randomHistory(seed int64, maxThreads, maxOps int) History {
	rng := seed
	next := func(n int) int {
		// xorshift-ish deterministic stream; quality is irrelevant.
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		v := int(rng % int64(n))
		if v < 0 {
			v = -v
		}
		return v
	}
	var h History
	busy := make(map[ThreadID]Event)
	nOps := next(maxOps) + 1
	for len(h) < 2*nOps {
		t := ThreadID(next(maxThreads) + 1)
		if inv, ok := busy[t]; ok {
			// Half the time, respond.
			if next(2) == 0 {
				h = append(h, Res(t, inv.Object, inv.Method, Pair(true, int64(next(10)))))
				delete(busy, t)
				continue
			}
		}
		if _, ok := busy[t]; !ok {
			e := Inv(t, objE, exch, Int(int64(next(10))))
			busy[t] = e
			h = append(h, e)
		}
	}
	// Close remaining calls to make the history complete.
	for t, inv := range busy {
		h = append(h, Res(t, inv.Object, inv.Method, Pair(false, inv.Arg.N)))
	}
	return h
}

func TestRandomHistoryIsWellFormed(t *testing.T) {
	for seed := int64(1); seed < 200; seed++ {
		h := randomHistory(seed, 5, 12)
		if !h.IsWellFormed() {
			t.Fatalf("seed %d: random history ill-formed:\n%v", seed, h)
		}
		if !h.IsComplete() {
			t.Fatalf("seed %d: random history incomplete", seed)
		}
	}
}

func TestFromOpsRoundTrip(t *testing.T) {
	for seed := int64(1); seed < 100; seed++ {
		h := randomHistory(seed, 4, 10)
		ops := h.Operations()
		back, err := FromOps(ops)
		if err != nil {
			t.Fatalf("seed %d: FromOps: %v", seed, err)
		}
		if !reflect.DeepEqual(back, h) {
			t.Fatalf("seed %d: round trip mismatch:\n got %v\nwant %v", seed, back, h)
		}
	}
}

func TestFromOpsErrors(t *testing.T) {
	if _, err := FromOps([]Op{{Thread: 1, Object: objE, Method: exch, InvIndex: 2, ResIndex: 1}}); err == nil {
		t.Error("ResIndex <= InvIndex should error")
	}
	if _, err := FromOps([]Op{
		{Thread: 1, Object: objE, Method: exch, InvIndex: 0, ResIndex: 1},
		{Thread: 2, Object: objE, Method: exch, InvIndex: 1, ResIndex: 2},
	}); err == nil {
		t.Error("overlapping indices should error")
	}
}
