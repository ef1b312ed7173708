package model

import (
	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// Cell is a modelled stack cell.
type Cell struct {
	Data int64
	Next int // cell index or -1
}

// StackOp is one operation of a client program over the central stack.
type StackOp struct {
	// IsPush selects push(V); otherwise the op is pop().
	IsPush bool
	V      int64
}

// Push builds a push operation.
func Push(v int64) StackOp { return StackOp{IsPush: true, V: v} }

// Pop builds a pop operation.
func Pop() StackOp { return StackOp{} }

// StackConfig describes a bounded client program over the one-shot central
// stack of Figure 2.
type StackConfig struct {
	// Object is the stack's object id (default "S").
	Object history.ObjectID
	// Programs[t] lists the operations of thread t+1, in order.
	Programs [][]StackOp
}

// Program counters of the central-stack step machine.
const (
	spcIdle     = iota // next step emits inv
	spcPushRead        // line 11: h = top (and allocate the cell)
	spcPushCAS         // line 13: CAS(&top, h, n)
	spcPopRead         // lines 16-18: h = top; empty check
	spcPopCAS          // line 20: CAS(&top, h, n)
	spcRet             // emit the response action
	spcDone
)

type stackThread struct {
	pc    int
	op    int
	h     int // read top snapshot (cell index or -1)
	n     int // allocated cell index (push)
	retOK bool
	retV  int64
}

// StackState is one state of the central-stack model.
type StackState struct {
	cfg     *StackConfig
	Threads []stackThread
	Cells   []Cell
	Top     int
	Trace   trace.Trace
	Hist    history.History
}

var _ sched.State = (*StackState)(nil)

// NewStack returns the initial state of the central-stack model.
func NewStack(cfg StackConfig) *StackState {
	if cfg.Object == "" {
		cfg.Object = "S"
	}
	st := &StackState{cfg: &cfg, Top: -1}
	for range cfg.Programs {
		st.Threads = append(st.Threads, stackThread{pc: spcIdle, h: -1, n: -1})
	}
	return st
}

// Object returns the modelled stack's object id.
func (s *StackState) Object() history.ObjectID { return s.cfg.Object }

// History implements HT.
func (s *StackState) History() history.History { return shared(s.Hist) }

// AuxTrace implements HT.
func (s *StackState) AuxTrace() trace.Trace { return shared(s.Trace) }

// Key implements sched.State.
func (s *StackState) Key() string {
	k := newKey()
	k = k.section(len(s.Threads))
	for _, th := range s.Threads {
		k = k.ints(th.pc, th.op, th.h, th.n)
		k = k.int64s(th.retV)
		k = k.flags(th.retOK)
	}
	k = k.ints(s.Top)
	k = k.section(len(s.Cells))
	for _, c := range s.Cells {
		k = k.int64s(c.Data)
		k = k.ints(c.Next)
	}
	return k.finish(s.Trace, s.Hist)
}

// Done implements sched.State.
func (s *StackState) Done() bool {
	for _, th := range s.Threads {
		if th.pc != spcDone {
			return false
		}
	}
	return true
}

// clone returns a successor ready for mutation: it copies the threads,
// which steps write in place, and shares the append-only cells, trace
// and history with s.
func (s *StackState) clone() *StackState {
	return &StackState{
		cfg:     s.cfg,
		Threads: append([]stackThread(nil), s.Threads...),
		Cells:   shared(s.Cells),
		Top:     s.Top,
		Trace:   shared(s.Trace),
		Hist:    shared(s.Hist),
	}
}

// Successors implements sched.State.
func (s *StackState) Successors() []sched.Succ {
	var out []sched.Succ
	for t := range s.Threads {
		if succ, ok := s.step(t); ok {
			out = append(out, succ)
		}
	}
	return out
}

func (s *StackState) step(t int) (sched.Succ, bool) {
	th := s.Threads[t]
	id := tid(t)
	obj := s.cfg.Object
	mk := func(label string, next *StackState) (sched.Succ, bool) {
		return sched.Succ{Thread: t, Label: label, Next: next}, true
	}
	switch th.pc {
	case spcIdle:
		op := s.cfg.Programs[t][th.op]
		c := s.clone()
		nt := &c.Threads[t]
		if op.IsPush {
			c.Hist = append(c.Hist, history.Inv(id, obj, spec.MethodPush, history.Int(op.V)))
			nt.pc = spcPushRead
		} else {
			c.Hist = append(c.Hist, history.Inv(id, obj, spec.MethodPop, history.Unit()))
			nt.pc = spcPopRead
		}
		return mk("inv", c)
	case spcPushRead:
		// h = top; n = new Cell(data, h). The allocation touches only
		// unpublished memory, so read+alloc is one atomic step.
		op := s.cfg.Programs[t][th.op]
		c := s.clone()
		c.Cells = append(c.Cells, Cell{Data: op.V, Next: s.Top})
		nt := &c.Threads[t]
		nt.h = s.Top
		nt.n = len(c.Cells) - 1
		nt.pc = spcPushCAS
		return mk("read-top", c)
	case spcPushCAS:
		op := s.cfg.Programs[t][th.op]
		c := s.clone()
		nt := &c.Threads[t]
		label := "push-miss"
		if s.Top == th.h {
			c.Top = th.n
			label = "PUSH"
		}
		ok := label == "PUSH"
		c.Trace = append(c.Trace, spec.PushElement(obj, id, op.V, ok))
		nt.retOK = ok
		nt.pc = spcRet
		return mk(label, c)
	case spcPopRead:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Top == -1 {
			// Empty: the read of top is the linearization point.
			c.Trace = append(c.Trace, spec.PopElement(obj, id, false, 0))
			nt.retOK, nt.retV = false, 0
			nt.pc = spcRet
			return mk("POP-EMPTY", c)
		}
		nt.h = s.Top
		nt.pc = spcPopCAS
		return mk("read-top", c)
	case spcPopCAS:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Top == th.h {
			c.Top = s.Cells[th.h].Next
			c.Trace = append(c.Trace, spec.PopElement(obj, id, true, s.Cells[th.h].Data))
			nt.retOK, nt.retV = true, s.Cells[th.h].Data
			nt.pc = spcRet
			return mk("POP", c)
		}
		c.Trace = append(c.Trace, spec.PopElement(obj, id, false, 0))
		nt.retOK, nt.retV = false, 0
		nt.pc = spcRet
		return mk("pop-miss", c)
	case spcRet:
		op := s.cfg.Programs[t][th.op]
		c := s.clone()
		nt := &c.Threads[t]
		if op.IsPush {
			c.Hist = append(c.Hist, history.Res(id, obj, spec.MethodPush, history.Bool(th.retOK)))
		} else {
			c.Hist = append(c.Hist, history.Res(id, obj, spec.MethodPop, history.Pair(th.retOK, th.retV)))
		}
		nt.op++
		nt.h, nt.n = -1, -1
		if nt.op < len(s.cfg.Programs[t]) {
			nt.pc = spcIdle
		} else {
			nt.pc = spcDone
		}
		return mk("res", c)
	default:
		return sched.Succ{}, false
	}
}
