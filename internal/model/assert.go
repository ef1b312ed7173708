package model

import (
	"context"
	"fmt"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// InvariantJ is the paper's global invariant J (Figure 4): g cannot contain
// an unsatisfied offer of a thread not currently participating in the
// exchange. The model checks the strictly stronger working version that the
// proof actually relies on: the owner is parked at the pass CAS with its
// own offer installed.
func InvariantJ(st sched.State) error {
	s, ok := st.(*ExchangerState)
	if !ok {
		return fmt.Errorf("model: InvariantJ applied to %T", st)
	}
	if s.G == -1 || s.Offers[s.G].Hole != HoleNull {
		return nil
	}
	owner := int(s.Offers[s.G].Tid) - 1
	if owner < 0 || owner >= len(s.Threads) {
		return fmt.Errorf("J: g holds offer of unknown thread %d", s.Offers[s.G].Tid)
	}
	th := s.Threads[owner]
	if th.pc == pcIdle || th.pc == pcDone {
		return fmt.Errorf("J violated: g holds unsatisfied offer of %s which is not executing exchange", tid(owner))
	}
	if th.pc != pcPass || th.n != s.G {
		return fmt.Errorf("J+ violated: owner %s of unsatisfied installed offer is at pc %d (offer %d, g %d)",
			tid(owner), th.pc, th.n, s.G)
	}
	return nil
}

// assertA is the proof outline's assertion A: the thread has not performed
// its operation yet (T_E|tid = T) and g does not hold an unsatisfied offer
// of this thread, and the freshly allocated offer is untouched.
func (s *ExchangerState) assertA(t int) error {
	th := s.Threads[t]
	id := tid(t)
	if got := s.viewLenOf(id); got != th.viewLen {
		return fmt.Errorf("A: T_E|%s grew from %d to %d before the operation took effect", id, th.viewLen, got)
	}
	if s.G != -1 && s.Offers[s.G].Hole == HoleNull && s.Offers[s.G].Tid == id {
		return fmt.Errorf("A: g holds an unsatisfied offer of %s while it runs elsewhere", id)
	}
	if th.n < 0 || th.n >= len(s.Offers) {
		return fmt.Errorf("A: thread %s has no allocated offer", id)
	}
	n := s.Offers[th.n]
	if n.Tid != id || n.Data != s.arg(t) {
		return fmt.Errorf("A: offer fields corrupted: %+v", n)
	}
	return nil
}

// assertB is the proof outline's assertion B(k): k is a partner's offer and
// the trace was extended with exactly the swap pairing this thread's
// operation with the partner's.
func (s *ExchangerState) assertB(t, k int) error {
	th := s.Threads[t]
	id := tid(t)
	if k < 0 || k >= len(s.Offers) {
		return fmt.Errorf("B: hole value %d is not a partner offer", k)
	}
	partner := s.Offers[k]
	if partner.Tid == id {
		return fmt.Errorf("B: thread %s paired with itself", id)
	}
	if got := s.viewLenOf(id); got != th.viewLen+1 {
		return fmt.Errorf("B: T_E|%s has %d elements, want %d (exactly one new)", id, got, th.viewLen+1)
	}
	last, ok := s.lastMentioning(id)
	if !ok {
		return fmt.Errorf("B: no element of 𝒯 mentions %s", id)
	}
	want := spec.SwapElement(s.cfg.Object, id, s.arg(t), partner.Tid, partner.Data)
	if !last.Equal(want) {
		return fmt.Errorf("B: last element %s, want %s", last, want)
	}
	return nil
}

func (s *ExchangerState) lastMentioning(id history.ThreadID) (trace.Element, bool) {
	for i := len(s.Trace) - 1; i >= 0; i-- {
		if s.Trace[i].Mentions(id) {
			return s.Trace[i], true
		}
	}
	return trace.Element{}, false
}

// ProofOutline checks the assertions of Figure 1's proof outline at every
// program point of every thread. Install it as the exploration invariant to
// machine-check the outline across all interleavings.
func ProofOutline(st sched.State) error {
	s, ok := st.(*ExchangerState)
	if !ok {
		return fmt.Errorf("model: ProofOutline applied to %T", st)
	}
	for t := range s.Threads {
		if err := s.outlineAt(t); err != nil {
			return fmt.Errorf("thread %s: %w", tid(t), err)
		}
	}
	return nil
}

func (s *ExchangerState) outlineAt(t int) error {
	th := s.Threads[t]
	id := tid(t)
	switch th.pc {
	case pcInit:
		// Line 14: A.
		return s.assertA(t)
	case pcPass:
		// Line 16: (T_E|tid = T ∧ n ↦ tid,v,null ∧ g = n) ∨ B(n.hole).
		n := s.Offers[th.n]
		if n.Hole == HoleNull {
			if got := s.viewLenOf(id); got != th.viewLen {
				return fmt.Errorf("line 16: trace grew while offer unmatched")
			}
			if s.G != th.n {
				return fmt.Errorf("line 16: unmatched offer displaced from g")
			}
			return nil
		}
		if n.Hole == HoleFail {
			return fmt.Errorf("line 16: own hole is fail before the pass CAS")
		}
		return s.assertB(t, n.Hole)
	case pcXchg:
		// Line 28: A ∧ (g = cur ∨ cur.hole ≠ null) ∧ cur ≠ null ∧ ¬s.
		if err := s.assertA(t); err != nil {
			return err
		}
		if th.cur == -1 {
			return fmt.Errorf("line 28: cur is null at the xchg CAS")
		}
		if th.s {
			return fmt.Errorf("line 28: s already true")
		}
		if s.G != th.cur && s.Offers[th.cur].Hole == HoleNull {
			return fmt.Errorf("line 26 stability: cur displaced from g while still unsatisfied")
		}
		return nil
	case pcClean:
		// Line 30: (¬s ∧ A ∨ s ∧ B(cur)) ∧ cur ≠ null ∧ cur.hole ≠ null.
		if th.cur == -1 {
			return fmt.Errorf("line 30: cur is null at the clean CAS")
		}
		if s.Offers[th.cur].Hole == HoleNull {
			return fmt.Errorf("line 30: cur.hole still null at the clean CAS")
		}
		if th.s {
			return s.assertB(t, th.cur)
		}
		return s.assertA(t)
	case pcLogFail:
		// Before the FAIL auxiliary assignment the op is still unlogged.
		if got := s.viewLenOf(id); got != th.viewLen {
			return fmt.Errorf("line 35: trace grew before the FAIL assignment")
		}
		return nil
	case pcRet:
		// Lines 37-38: the postcondition of exchange.
		if got := s.viewLenOf(id); got != th.viewLen+1 {
			return fmt.Errorf("post: T_E|%s has %d elements, want %d", id, got, th.viewLen+1)
		}
		last, ok := s.lastMentioning(id)
		if !ok {
			return fmt.Errorf("post: no element mentions %s", id)
		}
		if th.retOK {
			if last.Size() != 2 {
				return fmt.Errorf("post: successful exchange logged %s, want a swap", last)
			}
			found := false
			for _, op := range last.Ops {
				if op.Thread == id && op.Arg == history.Int(s.arg(t)) && op.Ret == history.Pair(true, th.retV) {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("post: swap %s does not contain this operation", last)
			}
		} else {
			want := spec.FailElement(s.cfg.Object, id, s.arg(t))
			if !last.Equal(want) {
				return fmt.Errorf("post: failed exchange logged %s, want %s", last, want)
			}
			if th.retV != s.arg(t) {
				return fmt.Errorf("post: failed exchange returns %d, want own value %d", th.retV, s.arg(t))
			}
		}
		return nil
	default:
		return nil
	}
}

// HT is implemented by model states that expose their interface history and
// auxiliary trace for terminal verification. Successor states share these
// slices with their ancestors, so callers must not write their elements;
// appending is safe, since each slice's capacity ends at its length.
type HT interface {
	History() history.History
	AuxTrace() trace.Trace
}

// VerifyCAL returns a terminal-state hook asserting the CAL obligations of
// Definition 6 on every maximal execution: the recorded trace (optionally
// rewritten by project, e.g. a view function composition) is admitted by
// sp, the produced history agrees with it (Definition 5), and — when
// runChecker is set — the CAL decision procedure independently accepts the
// history. Histories left incomplete by bounded-retry halts are completed
// by dropping pending invocations before the agreement check; the CAL
// checker handles them natively.
func VerifyCAL(sp spec.Spec, project func(trace.Trace) trace.Trace, runChecker bool) func(sched.State) error {
	return func(st sched.State) error {
		ht, ok := st.(HT)
		if !ok {
			return fmt.Errorf("model: VerifyCAL applied to %T", st)
		}
		h := ht.History()
		tr := ht.AuxTrace()
		if project != nil {
			tr = project(tr)
		}
		if _, err := spec.Accepts(sp, tr); err != nil {
			return fmt.Errorf("recorded trace rejected: %w", err)
		}
		if err := trace.Agrees(h.DropPending(), tr); err != nil {
			return fmt.Errorf("history/trace agreement: %w", err)
		}
		if runChecker {
			r, err := check.CAL(context.Background(), h, sp)
			if err != nil {
				return fmt.Errorf("CAL checker: %w", err)
			}
			if !r.OK {
				return fmt.Errorf("CAL checker rejects history: %s", r.Reason)
			}
		}
		return nil
	}
}
