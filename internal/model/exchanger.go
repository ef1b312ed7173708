// Package model encodes the paper's algorithms as fine-grained atomic step
// machines for exhaustive exploration by calgo/internal/sched. Each model
// mirrors the published pseudocode line by line: every shared-memory read,
// CAS and auxiliary-trace assignment is one atomic step, and the recorded
// history and auxiliary CA-trace are part of the explored state. Together
// with the rely/guarantee checks in calgo/internal/rg and the proof-outline
// assertions implemented here, exploring a model discharges the §5 proof
// obligations on a bounded universe.
package model

import (
	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// Hole pointer encodings for modelled offers.
const (
	HoleNull = -1 // hole == null
	HoleFail = -2 // hole == fail sentinel
)

// Offer is a modelled Offer object: the allocating thread (the auxiliary
// tid field of §5), the offered datum, and the hole pointer (an offer
// index, HoleNull or HoleFail).
type Offer struct {
	Tid  history.ThreadID
	Data int64
	Hole int
}

// Program counters of the exchanger step machine, mirroring Figure 1.
const (
	pcIdle    = iota // between operations; next step emits inv + alloc
	pcInit           // line 15: CAS(g, null, n)
	pcPass           // line 18: CAS(n.hole, null, fail) after the wait
	pcReadG          // line 25: cur = g (branching on null)
	pcXchg           // line 29: s = CAS(cur.hole, null, n)
	pcClean          // line 31: CAS(g, cur, null)
	pcLogFail        // line 35: h := h · fail (the FAIL action)
	pcRet            // return: emit the response action
	pcDone           // program finished
)

// ExchangerConfig describes a bounded client program over one exchanger.
type ExchangerConfig struct {
	// Object is the exchanger's object id (default "E").
	Object history.ObjectID
	// Programs[t] lists the values thread t+1 exchanges, in order.
	Programs [][]int64
	// Bug optionally injects a known defect, used to demonstrate that the
	// exploration catches real errors:
	//
	//	"drop-pass-log"    — PASS withdraws the offer without logging the
	//	                     failed operation (breaks the postcondition and
	//	                     the terminal CAL check);
	//	"wrong-swap-values" — XCHG logs the swap with the values not
	//	                     crossing (breaks assertion B and the spec);
	//	"late-swap-log"    — XCHG performs the CAS but logs the swap only
	//	                     at the active thread's return, breaking the
	//	                     atomicity of the instrumented action (breaks
	//	                     rely/guarantee justification).
	Bug string
}

type exchThread struct {
	pc      int
	op      int // index into the thread's program
	n       int // own offer index, -1 none
	cur     int // read offer index, -1 none
	s       bool
	retOK   bool
	retV    int64
	viewLen int  // |T_E|tid| at operation start (the logical variable T)
	lateLog bool // "late-swap-log" bug: swap logging deferred to return
}

// ExchangerState is one state of the exchanger model. It is exported so
// the rg package and tests can inspect it; treat it as immutable.
type ExchangerState struct {
	cfg     *ExchangerConfig
	Threads []exchThread
	Offers  []Offer
	G       int // offer index installed in g, or -1
	Trace   trace.Trace
	Hist    history.History
}

var _ sched.State = (*ExchangerState)(nil)

// NewExchanger returns the initial state of the exchanger model.
func NewExchanger(cfg ExchangerConfig) *ExchangerState {
	if cfg.Object == "" {
		cfg.Object = "E"
	}
	st := &ExchangerState{cfg: &cfg, G: -1}
	for range cfg.Programs {
		st.Threads = append(st.Threads, exchThread{pc: pcIdle, n: -1, cur: -1})
	}
	return st
}

// Object returns the modelled exchanger's object id.
func (s *ExchangerState) Object() history.ObjectID { return s.cfg.Object }

// History returns the interface history produced so far.
func (s *ExchangerState) History() history.History { return shared(s.Hist) }

// AuxTrace returns the recorded auxiliary CA-trace 𝒯.
func (s *ExchangerState) AuxTrace() trace.Trace { return shared(s.Trace) }

// tid maps a thread index to its ThreadID (1-based).
func tid(t int) history.ThreadID { return history.ThreadID(t + 1) }

// arg returns the value thread t's current operation exchanges.
func (s *ExchangerState) arg(t int) int64 {
	return s.cfg.Programs[t][s.Threads[t].op]
}

// Key implements sched.State.
func (s *ExchangerState) Key() string {
	k := newKey()
	k = k.section(len(s.Threads))
	for _, th := range s.Threads {
		k = k.ints(th.pc, th.op, th.n, th.cur)
		k = k.int64s(th.retV)
		k = k.flags(th.s, th.retOK, th.lateLog)
	}
	k = k.ints(s.G)
	k = k.section(len(s.Offers))
	for _, o := range s.Offers {
		k = k.ints(int(o.Tid), o.Hole)
		k = k.int64s(o.Data)
	}
	return k.finish(s.Trace, s.Hist)
}

// Done implements sched.State.
func (s *ExchangerState) Done() bool {
	for _, th := range s.Threads {
		if th.pc != pcDone {
			return false
		}
	}
	return true
}

// clone returns a successor ready for mutation: it copies what steps
// write in place (the threads and the offers) and shares the
// append-only trace and history with s.
func (s *ExchangerState) clone() *ExchangerState {
	return &ExchangerState{
		cfg:     s.cfg,
		Threads: append([]exchThread(nil), s.Threads...),
		Offers:  append([]Offer(nil), s.Offers...),
		G:       s.G,
		Trace:   shared(s.Trace),
		Hist:    shared(s.Hist),
	}
}

// viewLen counts the CA-elements of 𝒯 mentioning thread id — |T_E|tid|.
func (s *ExchangerState) viewLenOf(id history.ThreadID) int {
	n := 0
	for _, el := range s.Trace {
		if el.Mentions(id) {
			n++
		}
	}
	return n
}

// Successors implements sched.State.
func (s *ExchangerState) Successors() []sched.Succ {
	var out []sched.Succ
	for t := range s.Threads {
		if succ, ok := s.step(t); ok {
			out = append(out, succ)
		}
	}
	return out
}

// step computes thread t's single atomic step from this state.
func (s *ExchangerState) step(t int) (sched.Succ, bool) {
	th := s.Threads[t]
	id := tid(t)
	obj := s.cfg.Object
	mk := func(label string, next *ExchangerState) (sched.Succ, bool) {
		return sched.Succ{Thread: t, Label: label, Next: next}, true
	}
	switch th.pc {
	case pcIdle:
		// inv: record the invocation and allocate the offer (lines 12-13).
		v := s.arg(t)
		c := s.clone()
		c.Hist = append(c.Hist, history.Inv(id, obj, spec.MethodExchange, history.Int(v)))
		c.Offers = append(c.Offers, Offer{Tid: id, Data: v, Hole: HoleNull})
		nt := &c.Threads[t]
		nt.n = len(c.Offers) - 1
		nt.cur = -1
		nt.s = false
		nt.viewLen = c.viewLenOf(id)
		nt.pc = pcInit
		return mk("inv", c)
	case pcInit:
		// line 15: CAS(g, null, n).
		c := s.clone()
		if s.G == -1 {
			c.G = th.n
			c.Threads[t].pc = pcPass // wait window ends whenever scheduled
			return mk("INIT", c)
		}
		c.Threads[t].pc = pcReadG
		return mk("init-miss", c)
	case pcPass:
		// line 18: CAS(n.hole, null, fail).
		c := s.clone()
		if s.Offers[th.n].Hole == HoleNull {
			c.Offers[th.n].Hole = HoleFail
			if s.cfg.Bug != "drop-pass-log" {
				c.Trace = append(c.Trace, spec.FailElement(obj, id, s.Offers[th.n].Data))
			}
			nt := &c.Threads[t]
			nt.retOK, nt.retV = false, s.Offers[th.n].Data
			nt.pc = pcRet
			return mk("PASS", c)
		}
		// A partner filled our hole: it logged the swap at its XCHG.
		partner := s.Offers[th.n].Hole
		nt := &c.Threads[t]
		nt.retOK, nt.retV = true, s.Offers[partner].Data
		nt.pc = pcRet
		return mk("matched", c)
	case pcReadG:
		// lines 25-27: cur = g; branch on null.
		c := s.clone()
		nt := &c.Threads[t]
		nt.cur = s.G
		if s.G == -1 {
			nt.pc = pcLogFail
		} else {
			nt.pc = pcXchg
		}
		return mk("read-g", c)
	case pcXchg:
		// line 29: s = CAS(cur.hole, null, n).
		c := s.clone()
		nt := &c.Threads[t]
		if s.Offers[th.cur].Hole == HoleNull {
			c.Offers[th.cur].Hole = th.n
			partner := s.Offers[th.cur]
			switch s.cfg.Bug {
			case "wrong-swap-values":
				// Defect: the logged swap's values do not cross.
				c.Trace = append(c.Trace, spec.SwapElement(obj, partner.Tid, s.arg(t), id, partner.Data))
			case "late-swap-log":
				// Defect: the auxiliary assignment is deferred to the
				// return, breaking the atomicity of the XCHG action.
				nt.lateLog = true
			default:
				c.Trace = append(c.Trace, spec.SwapElement(obj, partner.Tid, partner.Data, id, s.arg(t)))
			}
			nt.s = true
			nt.pc = pcClean
			return mk("XCHG", c)
		}
		nt.s = false
		nt.pc = pcClean
		return mk("xchg-miss", c)
	case pcClean:
		// line 31: CAS(g, cur, null) — unconditional cleanup.
		c := s.clone()
		label := "clean-miss"
		if s.G == th.cur {
			c.G = -1
			label = "CLEAN"
		}
		nt := &c.Threads[t]
		if th.s {
			nt.retOK, nt.retV = true, s.Offers[th.cur].Data
			nt.pc = pcRet
		} else {
			nt.pc = pcLogFail
		}
		return mk(label, c)
	case pcLogFail:
		// line 35: h := h · (E.{(tid, ex(v) ▷ false, v)}) — the FAIL action.
		c := s.clone()
		v := s.arg(t)
		c.Trace = append(c.Trace, spec.FailElement(obj, id, v))
		nt := &c.Threads[t]
		nt.retOK, nt.retV = false, v
		nt.pc = pcRet
		return mk("FAIL", c)
	case pcRet:
		// Emit the response action and move to the next operation.
		c := s.clone()
		nt := &c.Threads[t]
		if th.lateLog && th.cur >= 0 {
			partner := s.Offers[th.cur]
			c.Trace = append(c.Trace, spec.SwapElement(obj, partner.Tid, partner.Data, id, s.arg(t)))
			nt.lateLog = false
		}
		c.Hist = append(c.Hist, history.Res(id, obj, spec.MethodExchange, history.Pair(th.retOK, th.retV)))
		nt.op++
		nt.n, nt.cur, nt.s = -1, -1, false
		if nt.op < len(s.cfg.Programs[t]) {
			nt.pc = pcIdle
		} else {
			nt.pc = pcDone
		}
		return mk("res", c)
	default: // pcDone
		return sched.Succ{}, false
	}
}
