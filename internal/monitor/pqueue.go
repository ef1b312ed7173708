package monitor

import (
	"sort"

	"calgo/internal/history"
	"calgo/internal/spec"
)

// pqVal is one value's insert window (a, b) and extract window (c, d).
type pqVal struct {
	v          int64
	a, b, c, d int
	matched    bool
}

// checkPQueue decides linearizability of a complete unambiguous
// min-priority-queue history in O(n log n) via the bad patterns P0–P3:
//
//	P0  a value is extracted but never inserted;
//	P1  a value is extracted entirely before its insert (a > d);
//	P2  priority inversion: the open window of extractmin ▷ v is fully
//	    covered by the union of the sure-presence cores [insRes, extInv]
//	    of *strictly smaller* values — at every feasible extraction point
//	    some value smaller than v is provably in the queue, so the
//	    minimum cannot be v;
//	P3  an empty-extract window is covered by the merged sure-presence
//	    cores of all values (as Q4 for queues).
//
// P2 is evaluated with a sweep in increasing value order over a lazy
// range-add/range-min segment tree on doubled coordinates (integer event
// points and the open real gaps between them), querying each extract's
// window before inserting the value's own core.
func checkPQueue(ops []history.Op) Result {
	vals := make(map[int64]*pqVal, len(ops)/2)
	var empties []history.Op
	maxIdx := 0
	for i := range ops {
		op := &ops[i]
		if op.ResIndex > maxIdx {
			maxIdx = op.ResIndex
		}
		switch op.Method {
		case spec.MethodInsert:
			if op.Arg.Kind != history.KindInt || op.Ret.Kind != history.KindBool || !op.Ret.B {
				return ineligible(KindPQueue, ops, "insert at inv=%d is not int ▷ true", op.InvIndex)
			}
			v := op.Arg.N
			if _, dup := vals[v]; dup {
				return ineligible(KindPQueue, ops, "value %d inserted more than once (ambiguous history)", v)
			}
			vals[v] = &pqVal{v: v, a: op.InvIndex, b: op.ResIndex, c: -1, d: -1}
		case spec.MethodExtractMin:
			if op.Arg.Kind != history.KindUnit || op.Ret.Kind != history.KindPair {
				return ineligible(KindPQueue, ops, "extractmin at inv=%d is not () ▷ (bool,int)", op.InvIndex)
			}
			if !op.Ret.B {
				if op.Ret.N != 0 {
					return violation(KindPQueue, ops, "failed extractmin at inv=%d returns (false,%d); the spec admits only (false,0)", op.InvIndex, op.Ret.N)
				}
				empties = append(empties, *op)
			}
		default:
			return ineligible(KindPQueue, ops, "unknown pqueue method %s", op.Method)
		}
	}
	for i := range ops {
		op := &ops[i]
		if op.Method != spec.MethodExtractMin || !op.Ret.B {
			continue
		}
		v := op.Ret.N
		pv, inserted := vals[v]
		if !inserted {
			return violation(KindPQueue, ops, "P0: extractmin ▷ %d at inv=%d but %d is never inserted", v, op.InvIndex, v)
		}
		if pv.matched {
			return ineligible(KindPQueue, ops, "value %d extracted more than once (ambiguous history)", v)
		}
		pv.matched = true
		pv.c, pv.d = op.InvIndex, op.ResIndex
		if pv.a > op.ResIndex {
			return violation(KindPQueue, ops,
				"P1: extractmin ▷ %d completes at %d before insert(%d) is invoked at %d", v, op.ResIndex, v, pv.a)
		}
	}

	// P3: empty extracts against the merged cores of every value.
	if len(empties) > 0 {
		cores := make([]core, 0, len(vals))
		for _, pv := range vals {
			if !pv.matched {
				cores = append(cores, core{s: pv.b, e: infIdx})
			} else if pv.b < pv.c {
				cores = append(cores, core{s: pv.b, e: pv.c})
			}
		}
		if r, bad := coveredEmpty(empties, cores); bad {
			return violation(KindPQueue, ops,
				"P3: empty extractmin with window (%d, %d) is covered by sure-presence core [%d, %d] — the queue is never empty there",
				r.inv, r.res, r.s, r.e)
		}
	}

	// P2 sweep in increasing value order. Doubled coordinates: position 2i
	// is event index i, position 2i+1 the open gap (i, i+1); a closed core
	// [s, e] covers 2s..2e, an open window (x, y) asks 2x+1..2y-1.
	ordered := make([]*pqVal, 0, len(vals))
	for _, pv := range vals {
		ordered = append(ordered, pv)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].v < ordered[j].v })
	t := newCoverSeg(2 * (maxIdx + 2))
	for _, pv := range ordered {
		if pv.matched {
			if t.rangeMin(2*pv.c+1, 2*pv.d-1) >= 1 {
				return violation(KindPQueue, ops,
					"P2: extractmin ▷ %d with window (%d, %d) is fully covered by smaller values' sure-presence cores — the minimum cannot be %d there",
					pv.v, pv.c, pv.d, pv.v)
			}
			if pv.b < pv.c {
				t.add(2*pv.b, 2*pv.c, 1)
			}
		} else {
			t.add(2*pv.b, 2*(maxIdx+1), 1)
		}
	}

	return Result{Kind: KindPQueue, Outcome: OK, Ops: ops}
}
