package model

import (
	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// Hole states of modelled dual-stack reservations (data nodes use dsNoHole).
const (
	dsNoHole    = -3
	dsOpen      = -1
	dsCancelled = -2
)

// DSConfig describes a bounded client program over the dual stack (§6).
// Operations use the Try semantics: a pop that installed a reservation
// either gets fulfilled or — at any later schedule point — cancels, which
// models both TryPop's bounded patience and the race between fulfilment
// and cancellation. Push and the pop install loop retry at most Retries
// times before halting.
type DSConfig struct {
	// Object is the dual stack's id (default "DS").
	Object history.ObjectID
	// Retries bounds the CAS retry loops (default 2).
	Retries int
	// Programs[t] lists the operations of thread t+1.
	Programs [][]StackOp
}

// Program counters of the dual-stack step machine.
const (
	dpcIdle       = iota
	dpcPushRead   // h = top; branch on node kind
	dpcPushCAS    // CAS(&top, h, n) for a data push
	dpcFulfil     // CAS(h.hole, open, value) + pair log
	dpcUnlinkPush // help CAS(&top, h, h.next) after fulfil/settled, then retry or return
	dpcPopRead    // h = top; branch
	dpcUnlinkPop  // help unlink a settled reservation during pop
	dpcPopCAS     // CAS(&top, h, h.next) for a data pop
	dpcResInstall // CAS(&top, h, r) installing a reservation
	dpcAwait      // check own hole: fulfilled -> return; else cancel
	dpcRet
	dpcHalt
	dpcDone
)

type dsNode struct {
	IsRes     bool
	Tid       history.ThreadID
	Data      int64 // datum (data node) or fulfilment value (reservation)
	Hole      int   // dsNoHole, dsOpen, dsCancelled, or 1 (fulfilled)
	Next      int
	Fulfilled bool
}

type dsThread struct {
	pc       int
	op       int
	round    int
	h        int // read top snapshot
	n        int // own node
	pushDone bool
	retOK    bool
	retV     int64
}

// DSState is one state of the dual-stack model.
type DSState struct {
	cfg     *DSConfig
	Threads []dsThread
	Nodes   []dsNode
	Top     int
	Trace   trace.Trace
	Hist    history.History
}

var _ sched.State = (*DSState)(nil)

// NewDualStack returns the initial state of the dual-stack model.
func NewDualStack(cfg DSConfig) *DSState {
	if cfg.Object == "" {
		cfg.Object = "DS"
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	st := &DSState{cfg: &cfg, Top: -1}
	for range cfg.Programs {
		st.Threads = append(st.Threads, dsThread{pc: dpcIdle, h: -1, n: -1})
	}
	return st
}

// Object returns the modelled dual stack's object id.
func (s *DSState) Object() history.ObjectID { return s.cfg.Object }

// History implements HT.
func (s *DSState) History() history.History { return shared(s.Hist) }

// AuxTrace implements HT.
func (s *DSState) AuxTrace() trace.Trace { return shared(s.Trace) }

// Key implements sched.State.
func (s *DSState) Key() string {
	k := newKey()
	k = k.section(len(s.Threads))
	for _, th := range s.Threads {
		k = k.ints(th.pc, th.op, th.round, th.h, th.n)
		k = k.int64s(th.retV)
		k = k.flags(th.pushDone, th.retOK)
	}
	k = k.ints(s.Top)
	k = k.section(len(s.Nodes))
	for _, n := range s.Nodes {
		k = k.ints(int(n.Tid), n.Hole, n.Next)
		k = k.int64s(n.Data)
		k = k.flags(n.IsRes, n.Fulfilled)
	}
	return k.finish(s.Trace, s.Hist)
}

// Done implements sched.State.
func (s *DSState) Done() bool {
	for _, th := range s.Threads {
		if th.pc != dpcDone {
			return false
		}
	}
	return true
}

// clone returns a successor ready for mutation: it copies what steps
// write in place (the threads and the nodes) and shares the append-only
// trace and history with s.
func (s *DSState) clone() *DSState {
	return &DSState{
		cfg:     s.cfg,
		Threads: append([]dsThread(nil), s.Threads...),
		Nodes:   append([]dsNode(nil), s.Nodes...),
		Top:     s.Top,
		Trace:   shared(s.Trace),
		Hist:    shared(s.Hist),
	}
}

func (s *DSState) dsOpOf(t int) StackOp { return s.cfg.Programs[t][s.Threads[t].op] }

// retry advances the round counter; at the bound the thread halts.
func (s *DSState) retry(c *DSState, t, backTo int) {
	nt := &c.Threads[t]
	nt.round++
	if nt.round >= s.cfg.Retries {
		nt.pc = dpcHalt
		return
	}
	nt.pc = backTo
}

// Successors implements sched.State.
func (s *DSState) Successors() []sched.Succ {
	var out []sched.Succ
	for t := range s.Threads {
		if succ, ok := s.step(t); ok {
			out = append(out, succ)
		}
	}
	return out
}

func (s *DSState) step(t int) (sched.Succ, bool) {
	th := s.Threads[t]
	if th.pc == dpcDone || th.pc == dpcHalt {
		return sched.Succ{}, false
	}
	id := tid(t)
	obj := s.cfg.Object
	op := s.dsOpOf(t)
	mk := func(label string, next *DSState) (sched.Succ, bool) {
		return sched.Succ{Thread: t, Label: label, Next: next}, true
	}
	switch th.pc {
	case dpcIdle:
		c := s.clone()
		nt := &c.Threads[t]
		nt.round = 0
		if op.IsPush {
			c.Hist = append(c.Hist, history.Inv(id, obj, spec.MethodPush, history.Int(op.V)))
			nt.pc = dpcPushRead
		} else {
			c.Hist = append(c.Hist, history.Inv(id, obj, spec.MethodPop, history.Unit()))
			nt.pc = dpcPopRead
		}
		return mk("inv", c)
	case dpcPushRead:
		c := s.clone()
		nt := &c.Threads[t]
		nt.h = s.Top
		if s.Top != -1 && s.Nodes[s.Top].IsRes {
			if s.Nodes[s.Top].Hole == dsOpen {
				nt.pc = dpcFulfil
			} else {
				nt.pushDone = false
				nt.pc = dpcUnlinkPush // settled reservation: help unlink
			}
			return mk("read-top", c)
		}
		c.Nodes = append(c.Nodes, dsNode{Tid: id, Data: op.V, Hole: dsNoHole, Next: s.Top})
		nt.n = len(c.Nodes) - 1
		nt.pc = dpcPushCAS
		return mk("read-top", c)
	case dpcPushCAS:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Top == th.h {
			c.Top = th.n
			c.Trace = append(c.Trace, spec.PushElement(obj, id, op.V, true))
			nt.retOK = true
			nt.pc = dpcRet
			return mk("PUSH", c)
		}
		s.retry(c, t, dpcPushRead)
		return mk("push-miss", c)
	case dpcFulfil:
		c := s.clone()
		nt := &c.Threads[t]
		r := s.Nodes[th.h]
		if r.Hole == dsOpen {
			c.Nodes[th.h].Hole = 1
			c.Nodes[th.h].Fulfilled = true
			c.Nodes[th.h].Data = op.V
			c.Trace = append(c.Trace, spec.FulfilmentElement(obj, id, op.V, r.Tid))
			nt.pushDone = true
			nt.pc = dpcUnlinkPush
			return mk("FULFIL", c)
		}
		nt.pushDone = false
		nt.pc = dpcUnlinkPush
		return mk("fulfil-miss", c)
	case dpcUnlinkPush:
		c := s.clone()
		nt := &c.Threads[t]
		label := "unlink-miss"
		if s.Top == th.h && th.h != -1 {
			c.Top = s.Nodes[th.h].Next
			label = "unlink"
		}
		if th.pushDone {
			nt.retOK = true
			nt.pc = dpcRet
		} else {
			s.retry(c, t, dpcPushRead)
		}
		return mk(label, c)
	case dpcPopRead:
		c := s.clone()
		nt := &c.Threads[t]
		nt.h = s.Top
		switch {
		case s.Top == -1:
			// Install a reservation on the empty stack.
			var hole int = dsOpen
			c.Nodes = append(c.Nodes, dsNode{IsRes: true, Tid: id, Hole: hole, Next: s.Top})
			nt.n = len(c.Nodes) - 1
			nt.pc = dpcResInstall
		case s.Nodes[s.Top].IsRes:
			if s.Nodes[s.Top].Hole == dsOpen {
				// Reservations waiting: stack our own on top.
				c.Nodes = append(c.Nodes, dsNode{IsRes: true, Tid: id, Hole: dsOpen, Next: s.Top})
				nt.n = len(c.Nodes) - 1
				nt.pc = dpcResInstall
			} else {
				// Settled: help unlink via the shared push-unlink step.
				nt.pushDone = false
				nt.pc = dpcUnlinkPop
			}
		default:
			nt.pc = dpcPopCAS
		}
		return mk("read-top", c)
	case dpcUnlinkPop:
		c := s.clone()
		label := "unlink-miss"
		if s.Top == th.h && th.h != -1 {
			c.Top = s.Nodes[th.h].Next
			label = "unlink"
		}
		s.retry(c, t, dpcPopRead)
		return mk(label, c)
	case dpcPopCAS:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Top == th.h {
			c.Top = s.Nodes[th.h].Next
			v := s.Nodes[th.h].Data
			c.Trace = append(c.Trace, spec.PopElement(obj, id, true, v))
			nt.retOK, nt.retV = true, v
			nt.pc = dpcRet
			return mk("POP", c)
		}
		s.retry(c, t, dpcPopRead)
		return mk("pop-miss", c)
	case dpcResInstall:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Top == th.h {
			c.Top = th.n
			nt.pc = dpcAwait
			return mk("RESERVE", c)
		}
		s.retry(c, t, dpcPopRead)
		return mk("reserve-miss", c)
	case dpcAwait:
		c := s.clone()
		nt := &c.Threads[t]
		r := s.Nodes[th.n]
		if r.Fulfilled {
			// Help unlink our settled reservation, then return the value.
			if s.Top == th.n {
				c.Top = r.Next
			}
			nt.retOK, nt.retV = true, r.Data
			nt.pc = dpcRet
			return mk("fulfilled", c)
		}
		// Patience exhausted at this schedule point: cancel.
		c.Nodes[th.n].Hole = dsCancelled
		c.Trace = append(c.Trace, spec.PopElement(obj, id, false, 0))
		if s.Top == th.n {
			c.Top = r.Next
		}
		nt.retOK, nt.retV = false, 0
		nt.pc = dpcRet
		return mk("CANCEL", c)
	case dpcRet:
		c := s.clone()
		nt := &c.Threads[t]
		if op.IsPush {
			c.Hist = append(c.Hist, history.Res(id, obj, spec.MethodPush, history.Bool(true)))
		} else {
			c.Hist = append(c.Hist, history.Res(id, obj, spec.MethodPop, history.Pair(th.retOK, th.retV)))
		}
		nt.op++
		nt.h, nt.n, nt.pushDone, nt.round = -1, -1, false, 0
		if nt.op < len(s.cfg.Programs[t]) {
			nt.pc = dpcIdle
		} else {
			nt.pc = dpcDone
		}
		return mk("res", c)
	default:
		return sched.Succ{}, false
	}
}
