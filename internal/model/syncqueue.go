package model

import (
	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// SQOp is one operation of a client program over the synchronous queue:
// a put of value V or a take.
type SQOp struct {
	IsPut bool
	V     int64
}

// Put builds a put operation.
func Put(v int64) SQOp { return SQOp{IsPut: true, V: v} }

// Take builds a take operation.
func Take() SQOp { return SQOp{} }

// SQConfig describes a bounded client program over the synchronous queue
// (the paper's second exchanger client, [9]/[22]). Each operation is a
// single Try attempt, mirroring the real implementation's attempt round:
// the asymmetric offer/hole protocol where only opposite kinds match.
type SQConfig struct {
	// Object is the queue's object id (default "SQ").
	Object history.ObjectID
	// Programs[t] lists the operations of thread t+1, in order.
	Programs [][]SQOp
}

// Program counters of the synchronous-queue step machine.
const (
	qpcIdle  = iota
	qpcInit  // CAS(g, null, n)
	qpcPass  // withdraw own offer after the wait window
	qpcReadG // cur = g; branch on kind
	qpcMatch // CAS(cur.hole, null, n) for an opposite-kind offer
	qpcClean // CAS(g, cur, null)
	qpcFail  // log the failed attempt
	qpcRet
	qpcDone
)

// sqOffer is a modelled offer: kind, owner, datum and hole.
type sqOffer struct {
	IsPut bool
	Tid   history.ThreadID
	Data  int64
	Hole  int // HoleNull, HoleFail, or index of the matching offer
}

type sqThread struct {
	pc      int
	op      int
	n       int // own offer
	cur     int // read offer
	matched bool
	retOK   bool
	retV    int64
}

// SQState is one state of the synchronous-queue model.
type SQState struct {
	cfg     *SQConfig
	Threads []sqThread
	Offers  []sqOffer
	G       int
	Trace   trace.Trace
	Hist    history.History
}

var _ sched.State = (*SQState)(nil)

// NewSyncQueue returns the initial state of the synchronous-queue model.
func NewSyncQueue(cfg SQConfig) *SQState {
	if cfg.Object == "" {
		cfg.Object = "SQ"
	}
	st := &SQState{cfg: &cfg, G: -1}
	for range cfg.Programs {
		st.Threads = append(st.Threads, sqThread{pc: qpcIdle, n: -1, cur: -1})
	}
	return st
}

// Object returns the modelled queue's object id.
func (s *SQState) Object() history.ObjectID { return s.cfg.Object }

// History implements HT.
func (s *SQState) History() history.History { return shared(s.Hist) }

// AuxTrace implements HT.
func (s *SQState) AuxTrace() trace.Trace { return shared(s.Trace) }

// Key implements sched.State.
func (s *SQState) Key() string {
	k := newKey()
	k = k.section(len(s.Threads))
	for _, th := range s.Threads {
		k = k.ints(th.pc, th.op, th.n, th.cur)
		k = k.int64s(th.retV)
		k = k.flags(th.matched, th.retOK)
	}
	k = k.ints(s.G)
	k = k.section(len(s.Offers))
	for _, o := range s.Offers {
		k = k.ints(int(o.Tid), o.Hole)
		k = k.int64s(o.Data)
		k = k.flags(o.IsPut)
	}
	return k.finish(s.Trace, s.Hist)
}

// Done implements sched.State.
func (s *SQState) Done() bool {
	for _, th := range s.Threads {
		if th.pc != qpcDone {
			return false
		}
	}
	return true
}

// clone returns a successor ready for mutation: it copies what steps
// write in place (the threads and the offers) and shares the
// append-only trace and history with s.
func (s *SQState) clone() *SQState {
	return &SQState{
		cfg:     s.cfg,
		Threads: append([]sqThread(nil), s.Threads...),
		Offers:  append([]sqOffer(nil), s.Offers...),
		G:       s.G,
		Trace:   shared(s.Trace),
		Hist:    shared(s.Hist),
	}
}

func (s *SQState) opOf(t int) SQOp { return s.cfg.Programs[t][s.Threads[t].op] }

func (s *SQState) invEvent(t int) history.Event {
	op := s.opOf(t)
	if op.IsPut {
		return history.Inv(tid(t), s.cfg.Object, spec.MethodPut, history.Int(op.V))
	}
	return history.Inv(tid(t), s.cfg.Object, spec.MethodTake, history.Unit())
}

func (s *SQState) failElement(t int) trace.Element {
	op := s.opOf(t)
	if op.IsPut {
		return trace.Singleton(trace.Operation{
			Thread: tid(t), Object: s.cfg.Object, Method: spec.MethodPut,
			Arg: history.Int(op.V), Ret: history.Bool(false),
		})
	}
	return trace.Singleton(trace.Operation{
		Thread: tid(t), Object: s.cfg.Object, Method: spec.MethodTake,
		Arg: history.Unit(), Ret: history.Pair(false, 0),
	})
}

// Successors implements sched.State.
func (s *SQState) Successors() []sched.Succ {
	var out []sched.Succ
	for t := range s.Threads {
		if succ, ok := s.step(t); ok {
			out = append(out, succ)
		}
	}
	return out
}

func (s *SQState) step(t int) (sched.Succ, bool) {
	th := s.Threads[t]
	if th.pc == qpcDone {
		return sched.Succ{}, false
	}
	op := s.opOf(t)
	mk := func(label string, next *SQState) (sched.Succ, bool) {
		return sched.Succ{Thread: t, Label: label, Next: next}, true
	}
	switch th.pc {
	case qpcIdle:
		c := s.clone()
		c.Hist = append(c.Hist, s.invEvent(t))
		c.Offers = append(c.Offers, sqOffer{IsPut: op.IsPut, Tid: tid(t), Data: op.V, Hole: HoleNull})
		nt := &c.Threads[t]
		nt.n = len(c.Offers) - 1
		nt.cur = -1
		nt.matched = false
		nt.pc = qpcInit
		return mk("inv", c)
	case qpcInit:
		c := s.clone()
		if s.G == -1 {
			c.G = th.n
			c.Threads[t].pc = qpcPass
			return mk("INIT", c)
		}
		c.Threads[t].pc = qpcReadG
		return mk("init-miss", c)
	case qpcPass:
		c := s.clone()
		if s.Offers[th.n].Hole == HoleNull {
			c.Offers[th.n].Hole = HoleFail
			c.Trace = append(c.Trace, s.failElement(t))
			nt := &c.Threads[t]
			nt.retOK, nt.retV = false, 0
			nt.pc = qpcRet
			return mk("PASS", c)
		}
		partner := s.Offers[th.n].Hole
		nt := &c.Threads[t]
		nt.retOK = true
		if op.IsPut {
			nt.retV = op.V
		} else {
			nt.retV = s.Offers[partner].Data
		}
		nt.pc = qpcRet
		return mk("matched", c)
	case qpcReadG:
		c := s.clone()
		nt := &c.Threads[t]
		nt.cur = s.G
		switch {
		case s.G == -1:
			nt.pc = qpcFail
		case s.Offers[s.G].IsPut != op.IsPut:
			nt.pc = qpcMatch
		case s.Offers[s.G].Hole != HoleNull:
			// Same kind, settled: help clean, then fail this attempt.
			nt.pc = qpcClean
		default:
			nt.pc = qpcFail
		}
		return mk("read-g", c)
	case qpcMatch:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Offers[th.cur].Hole == HoleNull {
			c.Offers[th.cur].Hole = th.n
			cur := s.Offers[th.cur]
			put, take := cur, sqOffer{IsPut: op.IsPut, Tid: tid(t), Data: op.V}
			if !put.IsPut {
				put, take = take, put
			}
			c.Trace = append(c.Trace, spec.HandOffElement(s.cfg.Object, put.Tid, put.Data, take.Tid))
			nt.matched = true
		}
		nt.pc = qpcClean
		if nt.matched {
			return mk("MATCH", c)
		}
		return mk("match-miss", c)
	case qpcClean:
		c := s.clone()
		label := "clean-miss"
		if s.G == th.cur && s.Offers[th.cur].Hole != HoleNull {
			c.G = -1
			label = "CLEAN"
		}
		nt := &c.Threads[t]
		if th.matched {
			nt.retOK = true
			if op.IsPut {
				nt.retV = op.V
			} else {
				nt.retV = s.Offers[th.cur].Data
			}
			nt.pc = qpcRet
		} else {
			nt.pc = qpcFail
		}
		return mk(label, c)
	case qpcFail:
		c := s.clone()
		c.Trace = append(c.Trace, s.failElement(t))
		nt := &c.Threads[t]
		nt.retOK, nt.retV = false, 0
		nt.pc = qpcRet
		return mk("FAIL", c)
	case qpcRet:
		c := s.clone()
		nt := &c.Threads[t]
		if op.IsPut {
			c.Hist = append(c.Hist, history.Res(tid(t), s.cfg.Object, spec.MethodPut, history.Bool(th.retOK)))
		} else {
			c.Hist = append(c.Hist, history.Res(tid(t), s.cfg.Object, spec.MethodTake, history.Pair(th.retOK, th.retV)))
		}
		nt.op++
		nt.n, nt.cur, nt.matched = -1, -1, false
		if nt.op < len(s.cfg.Programs[t]) {
			nt.pc = qpcIdle
		} else {
			nt.pc = qpcDone
		}
		return mk("res", c)
	default:
		return sched.Succ{}, false
	}
}
