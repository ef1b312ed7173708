package model

import (
	"strconv"
	"strings"

	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// ESConfig describes a bounded client program over the elimination stack
// of Figure 2, composed of a central stack and an array of exchangers.
type ESConfig struct {
	// Object is the elimination stack's id (default "ES"); the subobjects
	// are Object+".S", Object+".AR" and Object+".AR.E[i]".
	Object history.ObjectID
	// Slots is the elimination array width K (default 1).
	Slots int
	// Retries bounds the rounds of each operation's retry loop (default
	// 2). A thread that exhausts its budget halts with its operation
	// pending — the bounded-model-checking cut-off for Figure 2's
	// unbounded loops.
	Retries int
	// Sentinel is the POP_SENTINAL value (default 1<<60).
	Sentinel int64
	// Programs[t] lists the elimination-stack operations of thread t+1.
	Programs [][]StackOp
}

// Program counters of the elimination-stack step machine.
const (
	epcIdle     = iota
	epcPushRead // S.push: h = top (+ cell alloc)
	epcPushCAS  // S.push: CAS(&top, h, n)
	epcPopRead  // S.pop: h = top; empty check
	epcPopCAS   // S.pop: CAS(&top, h, n)
	epcSlot     // AR.exchange: pick a slot, allocate the offer
	epcExInit   // exchanger line 15
	epcExPass   // exchanger line 18
	epcExReadG  // exchanger line 25
	epcExXchg   // exchanger line 29
	epcExClean  // exchanger line 31
	epcExFail   // exchanger line 35
	epcRet      // emit the ES-level response
	epcHalt     // retry budget exhausted; operation stays pending
	epcDone
)

type esThread struct {
	pc    int
	op    int
	round int
	h     int // stack top snapshot
	n     int // cell index (push attempt)
	slot  int
	xn    int // own offer index
	xcur  int // read offer index
	xs    bool
	retV  int64
}

// esModel is an elimination-stack configuration together with the
// subobject ids and step labels derived from it, built once so that no
// step formats a string.
type esModel struct {
	ESConfig
	stackID    history.ObjectID   // Object+".S"
	arID       history.ObjectID   // Object+".AR"
	slotIDs    []history.ObjectID // Object+".AR.E[k]"
	slotLabels []string           // "slot[k]"
}

// ESState is one state of the elimination-stack model.
type ESState struct {
	cfg     *esModel
	Threads []esThread
	Cells   []Cell
	Top     int
	G       []int // per-slot installed offer, -1 when empty
	Offers  []Offer
	Trace   trace.Trace
	Hist    history.History
}

var _ sched.State = (*ESState)(nil)

// NewElimStack returns the initial state of the elimination-stack model.
func NewElimStack(cfg ESConfig) *ESState {
	if cfg.Object == "" {
		cfg.Object = "ES"
	}
	if cfg.Slots == 0 {
		cfg.Slots = 1
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Sentinel == 0 {
		cfg.Sentinel = 1 << 60
	}
	m := &esModel{ESConfig: cfg, stackID: cfg.Object + ".S", arID: cfg.Object + ".AR"}
	for k := 0; k < cfg.Slots; k++ {
		i := strconv.Itoa(k)
		m.slotIDs = append(m.slotIDs, m.arID+history.ObjectID(".E["+i+"]"))
		m.slotLabels = append(m.slotLabels, "slot["+i+"]")
	}
	st := &ESState{cfg: m, Top: -1, G: make([]int, cfg.Slots)}
	for i := range st.G {
		st.G[i] = -1
	}
	for range cfg.Programs {
		st.Threads = append(st.Threads, esThread{pc: epcIdle, h: -1, n: -1, slot: -1, xn: -1, xcur: -1})
	}
	return st
}

// Object returns the modelled elimination stack's object id.
func (s *ESState) Object() history.ObjectID { return s.cfg.Object }

// History implements HT.
func (s *ESState) History() history.History { return shared(s.Hist) }

// AuxTrace implements HT.
func (s *ESState) AuxTrace() trace.Trace { return shared(s.Trace) }

// Project is the composition F_ES ∘ F̂_AR over the model's raw trace: slot
// exchanges are relabeled to AR, then stack and AR elements are mapped to
// elimination-stack operations exactly as in §5. Pass it to VerifyCAL.
func (s *ESState) Project(tr trace.Trace) trace.Trace {
	esID, sID, arID := s.cfg.Object, s.cfg.stackID, s.cfg.arID
	var out trace.Trace
	for _, el := range tr {
		switch {
		case el.Object == sID:
			op := el.Ops[0]
			switch {
			case op.Method == spec.MethodPush && op.Ret.B:
				out = append(out, spec.PushElement(esID, op.Thread, op.Arg.N, true))
			case op.Method == spec.MethodPop && op.Ret.Kind == history.KindPair && op.Ret.B:
				out = append(out, spec.PopElement(esID, op.Thread, true, op.Ret.N))
			}
		case strings.HasPrefix(string(el.Object), string(arID)):
			if len(el.Ops) != 2 {
				continue // failed exchange: erased
			}
			push, pop := el.Ops[0], el.Ops[1]
			if push.Arg.N == s.cfg.Sentinel {
				push, pop = pop, push
			}
			if push.Arg.N == s.cfg.Sentinel || pop.Arg.N != s.cfg.Sentinel {
				continue // same-operation exchange: erased
			}
			out = append(out,
				spec.PushElement(esID, push.Thread, push.Arg.N, true),
				spec.PopElement(esID, pop.Thread, true, push.Arg.N))
		}
	}
	return out
}

// Key implements sched.State.
func (s *ESState) Key() string {
	k := newKey()
	k = k.section(len(s.Threads))
	for _, th := range s.Threads {
		k = k.ints(th.pc, th.op, th.round, th.h, th.n, th.slot, th.xn, th.xcur)
		k = k.int64s(th.retV)
		k = k.flags(th.xs)
	}
	k = k.ints(s.Top)
	k = k.section(len(s.Cells))
	for _, c := range s.Cells {
		k = k.int64s(c.Data)
		k = k.ints(c.Next)
	}
	k = k.section(len(s.G))
	k = k.ints(s.G...)
	k = k.section(len(s.Offers))
	for _, o := range s.Offers {
		k = k.ints(int(o.Tid), o.Hole)
		k = k.int64s(o.Data)
	}
	return k.finish(s.Trace, s.Hist)
}

// Done implements sched.State. Halted threads do not count as done; the
// explorer runs with AllowDeadlock and the terminal check drops their
// pending operations.
func (s *ESState) Done() bool {
	for _, th := range s.Threads {
		if th.pc != epcDone {
			return false
		}
	}
	return true
}

// clone returns a successor ready for mutation: it copies what steps
// write in place (the threads, g and the offers) and shares the
// append-only cells, trace and history with s.
func (s *ESState) clone() *ESState {
	return &ESState{
		cfg:     s.cfg,
		Threads: append([]esThread(nil), s.Threads...),
		Cells:   shared(s.Cells),
		Top:     s.Top,
		G:       append([]int(nil), s.G...),
		Offers:  append([]Offer(nil), s.Offers...),
		Trace:   shared(s.Trace),
		Hist:    shared(s.Hist),
	}
}

// Successors implements sched.State.
func (s *ESState) Successors() []sched.Succ {
	var out []sched.Succ
	for t := range s.Threads {
		out = append(out, s.steps(t)...)
	}
	return out
}

// isPush reports whether thread t's current op is a push, and its value.
func (s *ESState) opOf(t int) StackOp { return s.cfg.Programs[t][s.Threads[t].op] }

// exchangeArg is the value thread t offers to the elimination array.
func (s *ESState) exchangeArg(t int) int64 {
	if op := s.opOf(t); op.IsPush {
		return op.V
	}
	return s.cfg.Sentinel
}

// afterExchange routes the outcome d of an exchange attempt per Figure 2:
// a pusher is done iff it received the sentinel; a popper iff it received
// a non-sentinel value. Otherwise the round counter advances and the
// operation retries from the central stack, or halts at the retry bound.
func (s *ESState) afterExchange(c *ESState, t int, d int64) {
	nt := &c.Threads[t]
	op := s.opOf(t)
	done := d == s.cfg.Sentinel
	if !op.IsPush {
		done = d != s.cfg.Sentinel
	}
	if done {
		nt.retV = d
		nt.pc = epcRet
		return
	}
	nt.round++
	if nt.round >= s.cfg.Retries {
		nt.pc = epcHalt
		return
	}
	if op.IsPush {
		nt.pc = epcPushRead
	} else {
		nt.pc = epcPopRead
	}
}

func (s *ESState) steps(t int) []sched.Succ {
	th := s.Threads[t]
	id := tid(t)
	mk := func(label string, next *ESState) []sched.Succ {
		return []sched.Succ{{Thread: t, Label: label, Next: next}}
	}
	switch th.pc {
	case epcIdle:
		op := s.opOf(t)
		c := s.clone()
		nt := &c.Threads[t]
		nt.round = 0
		if op.IsPush {
			c.Hist = append(c.Hist, history.Inv(id, s.cfg.Object, spec.MethodPush, history.Int(op.V)))
			nt.pc = epcPushRead
		} else {
			c.Hist = append(c.Hist, history.Inv(id, s.cfg.Object, spec.MethodPop, history.Unit()))
			nt.pc = epcPopRead
		}
		return mk("inv", c)
	case epcPushRead:
		op := s.opOf(t)
		c := s.clone()
		c.Cells = append(c.Cells, Cell{Data: op.V, Next: s.Top})
		nt := &c.Threads[t]
		nt.h = s.Top
		nt.n = len(c.Cells) - 1
		nt.pc = epcPushCAS
		return mk("read-top", c)
	case epcPushCAS:
		op := s.opOf(t)
		c := s.clone()
		nt := &c.Threads[t]
		if s.Top == th.h {
			c.Top = th.n
			c.Trace = append(c.Trace, spec.PushElement(s.cfg.stackID, id, op.V, true))
			nt.pc = epcRet
			nt.retV = 0
			return mk("S-PUSH", c)
		}
		c.Trace = append(c.Trace, spec.PushElement(s.cfg.stackID, id, op.V, false))
		nt.pc = epcSlot
		return mk("s-push-miss", c)
	case epcPopRead:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Top == -1 {
			c.Trace = append(c.Trace, spec.PopElement(s.cfg.stackID, id, false, 0))
			nt.pc = epcSlot
			return mk("s-pop-empty", c)
		}
		nt.h = s.Top
		nt.pc = epcPopCAS
		return mk("read-top", c)
	case epcPopCAS:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Top == th.h {
			c.Top = s.Cells[th.h].Next
			v := s.Cells[th.h].Data
			c.Trace = append(c.Trace, spec.PopElement(s.cfg.stackID, id, true, v))
			nt.retV = v
			nt.pc = epcRet
			return mk("S-POP", c)
		}
		c.Trace = append(c.Trace, spec.PopElement(s.cfg.stackID, id, false, 0))
		nt.pc = epcSlot
		return mk("s-pop-miss", c)
	case epcSlot:
		// Nondeterministic slot choice; offer allocation is local.
		var out []sched.Succ
		for k := 0; k < s.cfg.Slots; k++ {
			c := s.clone()
			c.Offers = append(c.Offers, Offer{Tid: id, Data: s.exchangeArg(t), Hole: HoleNull})
			nt := &c.Threads[t]
			nt.slot = k
			nt.xn = len(c.Offers) - 1
			nt.xcur = -1
			nt.xs = false
			nt.pc = epcExInit
			out = append(out, sched.Succ{Thread: t, Label: s.cfg.slotLabels[k], Next: c})
		}
		return out
	case epcExInit:
		c := s.clone()
		nt := &c.Threads[t]
		if s.G[th.slot] == -1 {
			c.G[th.slot] = th.xn
			nt.pc = epcExPass
			return mk("E-INIT", c)
		}
		nt.pc = epcExReadG
		return mk("e-init-miss", c)
	case epcExPass:
		c := s.clone()
		if s.Offers[th.xn].Hole == HoleNull {
			c.Offers[th.xn].Hole = HoleFail
			c.Trace = append(c.Trace, spec.FailElement(s.cfg.slotIDs[th.slot], id, s.Offers[th.xn].Data))
			s.afterExchange(c, t, s.Offers[th.xn].Data)
			return mk("E-PASS", c)
		}
		partner := s.Offers[th.xn].Hole
		s.afterExchange(c, t, s.Offers[partner].Data)
		return mk("e-matched", c)
	case epcExReadG:
		c := s.clone()
		nt := &c.Threads[t]
		nt.xcur = s.G[th.slot]
		if s.G[th.slot] == -1 {
			nt.pc = epcExFail
		} else {
			nt.pc = epcExXchg
		}
		return mk("e-read-g", c)
	case epcExXchg:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Offers[th.xcur].Hole == HoleNull {
			c.Offers[th.xcur].Hole = th.xn
			partner := s.Offers[th.xcur]
			c.Trace = append(c.Trace, spec.SwapElement(s.cfg.slotIDs[th.slot], partner.Tid, partner.Data, id, s.exchangeArg(t)))
			nt.xs = true
			nt.pc = epcExClean
			return mk("E-XCHG", c)
		}
		nt.xs = false
		nt.pc = epcExClean
		return mk("e-xchg-miss", c)
	case epcExClean:
		c := s.clone()
		label := "e-clean-miss"
		if s.G[th.slot] == th.xcur {
			c.G[th.slot] = -1
			label = "E-CLEAN"
		}
		if th.xs {
			s.afterExchange(c, t, s.Offers[th.xcur].Data)
		} else {
			c.Threads[t].pc = epcExFail
		}
		return mk(label, c)
	case epcExFail:
		c := s.clone()
		c.Trace = append(c.Trace, spec.FailElement(s.cfg.slotIDs[th.slot], id, s.exchangeArg(t)))
		s.afterExchange(c, t, s.exchangeArg(t))
		return mk("E-FAIL", c)
	case epcRet:
		op := s.opOf(t)
		c := s.clone()
		nt := &c.Threads[t]
		if op.IsPush {
			c.Hist = append(c.Hist, history.Res(id, s.cfg.Object, spec.MethodPush, history.Bool(true)))
		} else {
			c.Hist = append(c.Hist, history.Res(id, s.cfg.Object, spec.MethodPop, history.Pair(true, th.retV)))
		}
		nt.op++
		nt.h, nt.n, nt.slot, nt.xn, nt.xcur, nt.xs, nt.round = -1, -1, -1, -1, -1, false, 0
		if nt.op < len(s.cfg.Programs[t]) {
			nt.pc = epcIdle
		} else {
			nt.pc = epcDone
		}
		return mk("res", c)
	default: // epcHalt, epcDone
		return nil
	}
}
