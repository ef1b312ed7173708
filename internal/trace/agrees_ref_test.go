package trace

import (
	"math/rand"
	"testing"

	"calgo/internal/history"
)

// refAgrees decides Definition 5 by backtracking search: it looks for the
// surjection element by element, trying every unassigned operation with
// the slot's tuple whose real-time predecessors are all assigned, with a
// memo of the assignment masks known to fail. It assumes nothing about
// which candidate is right, so it is the reference that Agrees' check of
// the one forced candidate is tested against.
func refAgrees(h history.History, tr Trace) bool {
	if !h.IsWellFormed() || !h.IsComplete() {
		return false
	}
	ops := h.Operations()
	total := 0
	for _, e := range tr {
		total += e.Size()
	}
	if total != len(ops) {
		return false
	}
	if len(ops) == 0 {
		return true
	}

	rt := history.RTOrder(ops)
	n := len(ops)
	assigned := make([]bool, n)
	memo := make(map[string]bool) // masks known to fail

	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(tr) {
			return true
		}
		key := refMaskKey(assigned)
		if memo[key] {
			return false
		}
		e := tr[k]
		chosen := make([]int, 0, e.Size())
		var assign func(slot int) bool
		assign = func(slot int) bool {
			if slot == len(e.Ops) {
				return rec(k + 1)
			}
			want := e.Ops[slot]
		candidates:
			for i := range ops {
				if assigned[i] || OpOf(ops[i]) != want {
					continue
				}
				for j := 0; j < n; j++ {
					if rt[j][i] && !assigned[j] {
						continue candidates
					}
				}
				for _, c := range chosen {
					if rt[c][i] || rt[i][c] {
						continue candidates
					}
				}
				assigned[i] = true
				chosen = append(chosen, i)
				if assign(slot + 1) {
					return true
				}
				assigned[i] = false
				chosen = chosen[:len(chosen)-1]
			}
			return false
		}
		if assign(0) {
			return true
		}
		memo[key] = true
		return false
	}
	return rec(0)
}

func refMaskKey(assigned []bool) string {
	buf := make([]byte, (len(assigned)+7)/8)
	for i, a := range assigned {
		if a {
			buf[i/8] |= 1 << (i % 8)
		}
	}
	return string(buf)
}

// genPooledHistoryAndTrace is genHistoryAndTrace over a pool of threads
// that each perform several operations: rounds of a swap pair or a lone
// failure by threads drawn from the pool, with argument values drawn from
// a small range so that equal operation tuples recur.
func genPooledHistoryAndTrace(rng *rand.Rand, threads, rounds int) (history.History, Trace) {
	var h history.History
	var tr Trace
	for i := 0; i < rounds; i++ {
		a, b := int64(rng.Intn(3)), int64(rng.Intn(3))
		t1 := history.ThreadID(1 + rng.Intn(threads))
		if threads == 1 || rng.Intn(3) == 0 {
			h = append(h,
				history.Inv(t1, objE, exch, history.Int(a)),
				history.Res(t1, objE, exch, history.Pair(false, a)))
			tr = append(tr, failElem(t1, a))
			continue
		}
		t2 := history.ThreadID(1 + rng.Intn(threads-1))
		if t2 >= t1 {
			t2++
		}
		h = append(h,
			history.Inv(t1, objE, exch, history.Int(a)),
			history.Inv(t2, objE, exch, history.Int(b)))
		if rng.Intn(2) == 0 {
			h = append(h,
				history.Res(t1, objE, exch, history.Pair(true, b)),
				history.Res(t2, objE, exch, history.Pair(true, a)))
		} else {
			h = append(h,
				history.Res(t2, objE, exch, history.Pair(true, a)),
				history.Res(t1, objE, exch, history.Pair(true, b)))
		}
		tr = append(tr, swapElem(t1, a, t2, b))
	}
	return h, tr
}

// swapAdjacent exchanges a few random adjacent actions of different
// threads, which keeps the history well-formed. A same-kind swap leaves
// ≺H unchanged; a response moved after an invocation drops one
// precedence; an invocation moved after a response adds one, which may
// break agreement, so that kind is applied only when tighten is set.
func swapAdjacent(rng *rand.Rand, h history.History, swaps int, tighten bool) history.History {
	out := append(history.History(nil), h...)
	for k := 0; k < swaps; k++ {
		i := rng.Intn(len(out) - 1)
		a, b := out[i], out[i+1]
		if a.Thread == b.Thread {
			continue
		}
		if a.IsInv() && b.IsRes() && !tighten {
			continue
		}
		out[i], out[i+1] = b, a
	}
	return out
}

// mutateTrace applies one random edit to a copy of tr: two elements
// swapped, two adjacent elements merged, one operation moved to another
// thread, or one return value changed. Merges and moves build elements
// directly, so a result may hold two operations of one thread.
func mutateTrace(rng *rand.Rand, tr Trace, threads int) Trace {
	out := append(Trace(nil), tr...)
	if len(out) < 2 {
		return out
	}
	switch rng.Intn(4) {
	case 0:
		i, j := rng.Intn(len(out)), rng.Intn(len(out))
		out[i], out[j] = out[j], out[i]
	case 1:
		i := rng.Intn(len(out) - 1)
		merged := Element{Object: out[i].Object, Ops: append(append([]Operation(nil), out[i].Ops...), out[i+1].Ops...)}
		out = append(append(out[:i:i], merged), out[i+2:]...)
	case 2, 3:
		k := rng.Intn(len(out))
		ops := append([]Operation(nil), out[k].Ops...)
		s := rng.Intn(len(ops))
		if rng.Intn(2) == 0 {
			ops[s].Thread = history.ThreadID(1 + rng.Intn(threads))
		} else {
			ops[s].Ret.N++
		}
		out[k] = Element{Object: out[k].Object, Ops: ops}
	}
	return out
}

// TestAgreesMatchesSearch checks Agrees against the backtracking search
// refAgrees on generated (history, trace) pairs: agreeing rounds with
// same-kind swaps, pools of threads that perform several operations each,
// tightened histories and mutated traces. Both verdicts must be well
// represented.
func TestAgreesMatchesSearch(t *testing.T) {
	const pairs = 24000
	rng := rand.New(rand.NewSource(1))
	agree := 0
	for n := 0; n < pairs; n++ {
		var h history.History
		var tr Trace
		var threads int
		if n%2 == 0 {
			h, tr = genHistoryAndTrace(rng, 1+rng.Intn(6))
			threads = len(h.Threads())
		} else {
			threads = 1 + rng.Intn(4)
			h, tr = genPooledHistoryAndTrace(rng, threads, 1+rng.Intn(7))
		}
		switch rng.Intn(4) {
		case 0:
			h = swapAdjacent(rng, h, 6, false)
		case 1:
			h = swapAdjacent(rng, h, 2, true)
		case 2:
			tr = mutateTrace(rng, tr, threads+1)
		case 3:
			h = swapAdjacent(rng, h, 6, false)
			tr = mutateTrace(rng, tr, threads+1)
		}
		err := Agrees(h, tr)
		if want := refAgrees(h, tr); want != (err == nil) {
			t.Fatalf("pair %d: Agrees = %v, search says agree=%v\nhistory:\n%v\ntrace: %v", n, err, want, h, tr)
		}
		if err == nil {
			agree++
		}
	}
	t.Logf("%d of %d pairs agree", agree, pairs)
	if agree < pairs/4 || pairs-agree < pairs/4 {
		t.Errorf("%d of %d pairs agree; want both verdicts on at least a quarter", agree, pairs)
	}
}
