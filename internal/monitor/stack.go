package monitor

import (
	"sort"

	"calgo/internal/history"
	"calgo/internal/spec"
)

const infIdx = int(^uint(0) >> 1)

// stackVal is one value's push window (a, b) and pop window (c, d); for
// never-popped values c = d = infIdx.
type stackVal struct {
	v          int64
	a, b, c, d int
	matched    bool
	pushOp     history.Op
	popOp      history.Op
	pushed     bool
	popped     bool
}

// checkStack decides linearizability of a complete unambiguous LIFO-stack
// history. Unlike the queue monitor it is sound but not complete: it
// first rejects via proven bad patterns (S0–S5), then constructs an
// explicit witness schedule with a greedy event sweep and validates it,
// answering OK only when the witness replays. The rare histories where
// the greedy scheduler gets stuck without a certificate return
// Inconclusive, and the engine dispatch falls back to the DFS.
//
// Bad patterns (each a proof of non-linearizability):
//
//	S0  a value is popped but never pushed;
//	S1  a value is popped entirely before its push (a > d);
//	S2  a pop-empty window is covered by merged sure-presence cores
//	    [pushRes, popInv] (the stack is provably nonempty throughout);
//	S3  matched u, v with a_u ≥ b_v ∧ b_u ≤ c_v ∧ c_u ≥ d_v: every
//	    schedule pushes u while v is on the stack, yet u pops after v;
//	S4  unmatched u, matched v with a_u ≥ b_v ∧ b_u ≤ c_v: u is forced
//	    on top of v and never pops, so v cannot pop;
//	S5  matched u, unmatched v with b_u ≤ a_v ∧ c_u ≥ b_v: u is forced
//	    below v before v's window opens, and must pop only after v —
//	    which never pops — is above it.
func checkStack(ops []history.Op) Result {
	vals := make(map[int64]*stackVal, len(ops)/2)
	var empties []history.Op
	for i := range ops {
		op := &ops[i]
		switch op.Method {
		case spec.MethodPush:
			if op.Arg.Kind != history.KindInt || op.Ret.Kind != history.KindBool || !op.Ret.B {
				return ineligible(KindStack, ops, "push at inv=%d is not int ▷ true", op.InvIndex)
			}
			v := op.Arg.N
			if _, dup := vals[v]; dup {
				return ineligible(KindStack, ops, "value %d pushed more than once (ambiguous history)", v)
			}
			vals[v] = &stackVal{v: v, a: op.InvIndex, b: op.ResIndex, c: infIdx, d: infIdx, pushOp: *op}
		case spec.MethodPop:
			if op.Arg.Kind != history.KindUnit || op.Ret.Kind != history.KindPair {
				return ineligible(KindStack, ops, "pop at inv=%d is not () ▷ (bool,int)", op.InvIndex)
			}
			if !op.Ret.B {
				if op.Ret.N != 0 {
					return violation(KindStack, ops, "failed pop at inv=%d returns (false,%d); the spec admits only (false,0)", op.InvIndex, op.Ret.N)
				}
				empties = append(empties, *op)
			}
		default:
			return ineligible(KindStack, ops, "unknown stack method %s", op.Method)
		}
	}
	for i := range ops {
		op := &ops[i]
		if op.Method != spec.MethodPop || !op.Ret.B {
			continue
		}
		v := op.Ret.N
		sv, pushed := vals[v]
		if !pushed {
			return violation(KindStack, ops, "S0: pop ▷ %d at inv=%d but %d is never pushed", v, op.InvIndex, v)
		}
		if sv.matched {
			return ineligible(KindStack, ops, "value %d popped more than once (ambiguous history)", v)
		}
		sv.matched = true
		sv.c, sv.d = op.InvIndex, op.ResIndex
		sv.popOp = *op
		if sv.a > op.ResIndex {
			return violation(KindStack, ops,
				"S1: pop ▷ %d completes at %d before push(%d) is invoked at %d", v, op.ResIndex, v, sv.a)
		}
	}

	// S2: pop-empty coverage by merged sure-presence cores, exactly as Q4.
	if len(empties) > 0 {
		cores := make([]core, 0, len(vals))
		for _, sv := range vals {
			if !sv.matched {
				cores = append(cores, core{s: sv.b, e: infIdx})
			} else if sv.b < sv.c {
				cores = append(cores, core{s: sv.b, e: sv.c})
			}
		}
		if r, bad := coveredEmpty(empties, cores); bad {
			return violation(KindStack, ops,
				"S2: empty pop with window (%d, %d) is covered by sure-presence core [%d, %d] — the stack is never empty there",
				r.inv, r.res, r.s, r.e)
		}
	}

	var matchedVals, unmatchedVals []*stackVal
	for _, sv := range vals {
		if sv.matched {
			matchedVals = append(matchedVals, sv)
		} else {
			unmatchedVals = append(unmatchedVals, sv)
		}
	}

	if r, bad := stackCertificates(ops, matchedVals, unmatchedVals); bad {
		return r
	}

	return stackSchedule(ops, vals, empties)
}

// stackCertificates sweeps for the pairwise bad patterns S3, S4, S5.
func stackCertificates(ops []history.Op, matched, unmatched []*stackVal) (Result, bool) {
	// S4: for matched v, an unmatched u with a_u ≥ b_v ∧ b_u ≤ c_v.
	// Walk v by b descending, accumulating unmatched u with a_u ≥ b_v and
	// the minimum b_u seen; fire when that minimum is ≤ c_v.
	if len(unmatched) > 0 && len(matched) > 0 {
		mv := append([]*stackVal(nil), matched...)
		sort.Slice(mv, func(i, j int) bool { return mv[i].b > mv[j].b })
		uv := append([]*stackVal(nil), unmatched...)
		sort.Slice(uv, func(i, j int) bool { return uv[i].a > uv[j].a })
		i, minB := 0, infIdx
		var minU *stackVal
		for _, v := range mv {
			for i < len(uv) && uv[i].a >= v.b {
				if uv[i].b < minB {
					minB, minU = uv[i].b, uv[i]
				}
				i++
			}
			if minU != nil && minB <= v.c {
				return violation(KindStack, ops,
					"S4: unmatched push(%d) with window (%d, %d) is forced on top of %d (pushed by %d, popped from %d) and never pops",
					minU.v, minU.a, minU.b, v.v, v.b, v.c), true
			}
		}
	}
	// S5: for unmatched v, a matched u with b_u ≤ a_v ∧ c_u ≥ b_v.
	// Walk v by a ascending, accumulating matched u with b_u ≤ a_v and the
	// maximum c_u seen; fire when that maximum is ≥ b_v.
	if len(unmatched) > 0 && len(matched) > 0 {
		mv := append([]*stackVal(nil), matched...)
		sort.Slice(mv, func(i, j int) bool { return mv[i].b < mv[j].b })
		uv := append([]*stackVal(nil), unmatched...)
		sort.Slice(uv, func(i, j int) bool { return uv[i].a < uv[j].a })
		i, maxC := 0, -1
		var maxU *stackVal
		for _, v := range uv {
			for i < len(mv) && mv[i].b <= v.a {
				if mv[i].c > maxC {
					maxC, maxU = mv[i].c, mv[i]
				}
				i++
			}
			if maxU != nil && maxC >= v.b {
				return violation(KindStack, ops,
					"S5: %d is pushed by %d, below unmatched push(%d) whose window closes at %d, yet pops only from %d",
					maxU.v, maxU.b, v.v, v.b, maxU.c), true
			}
		}
	}
	// S3: matched u, v with a_u ≥ b_v ∧ b_u ≤ c_v ∧ c_u ≥ d_v. Process v
	// by c_v ascending, inserting u (keyed by a_u, value c_u) once
	// b_u ≤ c_v, then ask for the max c_u among u with a_u ≥ b_v.
	if len(matched) > 1 {
		byC := append([]*stackVal(nil), matched...)
		sort.Slice(byC, func(i, j int) bool { return byC[i].c < byC[j].c })
		byB := append([]*stackVal(nil), matched...)
		sort.Slice(byB, func(i, j int) bool { return byB[i].b < byB[j].b })
		n := len(ops) * 2
		t := newMaxSeg(n)
		who := make([]*stackVal, n)
		i := 0
		for _, v := range byC {
			for i < len(byB) && byB[i].b <= v.c {
				t.update(byB[i].a, byB[i].c)
				who[byB[i].a] = byB[i]
				i++
			}
			if pos := t.findSuffixGE(v.b, v.d); pos >= 0 {
				u := who[pos]
				if u != v {
					return violation(KindStack, ops,
						"S3: %d (push window (%d, %d), pop window (%d, %d)) is forced on the stack above %d (push response %d, pop window (%d, %d)) yet pops after it",
						u.v, u.a, u.b, u.c, u.d, v.v, v.b, v.c, v.d), true
				}
			}
		}
	}
	return Result{}, false
}

// stackEvent tags what happens at one event index.
type stackEvent struct {
	kind stackEventKind
	val  *stackVal
	op   history.Op // for empties
}

type stackEventKind uint8

const (
	evNone stackEventKind = iota
	evPushRes
	evPopRes
	evEmptyInv
	evEmptyRes
)

type stackStuck struct{ reason string }

// stackSchedule greedily constructs a witness linearization: pushes
// happen at their response deadlines (with forced-below repairs), pops as
// soon as the top's window opens, pop-empties whenever the stack is
// empty. A completed schedule is validated by replay, so OK is sound by
// construction; any stuck state is Inconclusive (the provable stuck
// states were already rejected by S3–S5).
func stackSchedule(ops []history.Op, vals map[int64]*stackVal, empties []history.Op) Result {
	maxIdx := 0
	for i := range ops {
		if ops[i].ResIndex > maxIdx {
			maxIdx = ops[i].ResIndex
		}
	}
	events := make([]stackEvent, maxIdx+1)
	for _, sv := range vals {
		events[sv.b] = stackEvent{kind: evPushRes, val: sv}
		if sv.matched {
			events[sv.d] = stackEvent{kind: evPopRes, val: sv}
		}
	}
	for _, e := range empties {
		events[e.InvIndex] = stackEvent{kind: evEmptyInv, op: e}
		events[e.ResIndex] = stackEvent{kind: evEmptyRes, op: e}
	}

	// Unpushed values keyed by push deadline b, carrying c for the
	// forced-below query "∃ unpushed u: b_u ≤ c_v ∧ c_u ≥ d_v".
	unpushed := newMaxSeg(maxIdx + 2)
	byB := make([]*stackVal, maxIdx+2)
	for _, sv := range vals {
		cKey := sv.c
		if cKey == infIdx {
			cKey = maxIdx + 1 // still compares ≥ any d_v
		}
		unpushed.update(sv.b, cKey)
		byB[sv.b] = sv
	}

	var (
		stack    []*stackVal
		schedule = make([]history.Op, 0, len(ops))
		opened   []history.Op // undischarged, opened pop-empties
	)
	doPop := func(u *stackVal) {
		stack = stack[:len(stack)-1]
		u.popped = true
		schedule = append(schedule, u.popOp)
	}
	discharge := func() {
		for _, e := range opened {
			schedule = append(schedule, e)
		}
		opened = opened[:0]
	}
	var doPush func(v *stackVal, idx int) *stackStuck
	doPush = func(v *stackVal, idx int) *stackStuck {
		if v.pushed {
			return nil
		}
		if v.a >= idx {
			return &stackStuck{reason: "push window of a forced-below value has not opened"}
		}
		unpushed.update(v.b, -1)
		if v.matched {
			// Forced-below repairs: any unpushed u with b_u ≤ c_v that
			// cannot pop before v's pop (c_u ≥ d_v, or u unmatched) must
			// go under v now. The relation is acyclic (c_u > c_v), so the
			// recursion terminates.
			for {
				pos := unpushed.findPrefixGE(v.c, v.d)
				if pos < 0 {
					break
				}
				if st := doPush(byB[pos], idx); st != nil {
					return st
				}
			}
			// On-stack values whose pop deadline precedes v's pop window
			// must leave before v lands on top of them.
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				if !u.matched || u.d > v.c || u.c >= idx {
					break
				}
				doPop(u)
			}
		} else {
			// No matched value may sit under a never-popped one.
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				if !u.matched || u.c >= idx {
					break
				}
				doPop(u)
			}
		}
		v.pushed = true
		stack = append(stack, v)
		schedule = append(schedule, v.pushOp)
		return nil
	}

	for idx := 0; idx <= maxIdx; idx++ {
		// Eager pops: the top's window being open means popping now is
		// never worse than popping later.
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			if !u.matched || u.c >= idx {
				break
			}
			doPop(u)
		}
		if len(stack) == 0 && len(opened) > 0 {
			discharge()
		}
		ev := events[idx]
		switch ev.kind {
		case evPushRes:
			if !ev.val.pushed {
				if st := doPush(ev.val, idx); st != nil {
					return Result{Kind: KindStack, Outcome: Inconclusive, Reason: "greedy scheduler stuck at push deadline: " + st.reason, Ops: ops}
				}
			}
		case evPopRes:
			v := ev.val
			if v.popped {
				break
			}
			if !v.pushed {
				if st := doPush(v, idx); st != nil {
					return Result{Kind: KindStack, Outcome: Inconclusive, Reason: "greedy scheduler stuck at pop deadline: " + st.reason, Ops: ops}
				}
			}
			for len(stack) > 0 && stack[len(stack)-1] != v {
				u := stack[len(stack)-1]
				if !u.matched || u.c >= idx {
					return Result{Kind: KindStack, Outcome: Inconclusive,
						Reason: "greedy scheduler stuck: unpoppable blocker above a value at its pop deadline", Ops: ops}
				}
				doPop(u)
			}
			if len(stack) == 0 {
				return Result{Kind: KindStack, Outcome: Inconclusive, Reason: "greedy scheduler lost a value before its pop deadline", Ops: ops}
			}
			doPop(v)
			if len(stack) == 0 && len(opened) > 0 {
				discharge()
			}
		case evEmptyInv:
			// The window opens at idx; the earliest discharge point lives
			// in the next gap, handled by the idx+1 sweep.
			opened = append(opened, ev.op)
		case evEmptyRes:
			pending := false
			for _, e := range opened {
				if e.ResIndex == idx {
					pending = true
				}
			}
			if pending {
				if len(stack) != 0 {
					return Result{Kind: KindStack, Outcome: Inconclusive,
						Reason: "greedy scheduler stuck: stack nonempty throughout a pop-empty window", Ops: ops}
				}
				discharge()
			}
		}
	}

	if !validStackWitness(ops, schedule) {
		return Result{Kind: KindStack, Outcome: Inconclusive, Reason: "greedy schedule failed witness validation", Ops: ops}
	}
	return Result{Kind: KindStack, Outcome: OK, Ops: ops}
}

// validStackWitness replays a candidate linearization: every operation
// scheduled exactly once, linearization points assignable in strictly
// increasing real order inside each op's open window, and LIFO semantics
// holding at every step.
func validStackWitness(ops []history.Op, schedule []history.Op) bool {
	if len(schedule) != len(ops) {
		return false
	}
	lower := -1 // infimum of the last chosen real point
	var st []int64
	for i := range schedule {
		op := &schedule[i]
		if op.InvIndex > lower {
			lower = op.InvIndex
		}
		if lower >= op.ResIndex {
			return false
		}
		switch op.Method {
		case spec.MethodPush:
			st = append(st, op.Arg.N)
		case spec.MethodPop:
			if !op.Ret.B {
				if len(st) != 0 {
					return false
				}
				break
			}
			if len(st) == 0 || st[len(st)-1] != op.Ret.N {
				return false
			}
			st = st[:len(st)-1]
		default:
			return false
		}
	}
	return true
}
