package model

import (
	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// QOp is one operation over the dual queue: enq(V) or deq.
type QOp struct {
	IsEnq bool
	V     int64
}

// Enq builds an enqueue operation.
func Enq(v int64) QOp { return QOp{IsEnq: true, V: v} }

// Deq builds a dequeue operation.
func Deq() QOp { return QOp{} }

// DQConfig describes a bounded client program over the dual queue. The
// model mirrors internal/objects/dualqueue step by step — in particular
// the tail-kind mode decision whose head-kind variant has a FIFO-breaking
// race (see the package comment there); exploring this model checks that
// design exhaustively. Deq uses the Try semantics: a waiting reservation
// is either fulfilled or cancels at a later schedule point.
type DQConfig struct {
	// Object is the queue's id (default "DQ").
	Object history.ObjectID
	// Retries bounds the CAS retry loops (default 2).
	Retries int
	// Programs[t] lists the operations of thread t+1.
	Programs [][]QOp
	// HeadKindBug, when set, decides the enqueue mode by the HEAD's first
	// node instead of the tail — the defective variant; exploration must
	// catch it via the terminal CAL check.
	HeadKindBug bool
}

// Program counters of the dual-queue step machine. The head/first reads
// and the tail read are SEPARATE atomic steps: the staleness window
// between them is exactly what makes the head-kind mode decision unsound
// (HeadKindBug) and what the tail-kind decision must survive.
const (
	qdIdle       = iota
	qdEnqRead    // read head and head.next
	qdEnqDecide  // read tail, decide mode, allocate node
	qdEnqCAS     // CAS(tail.next, nil, n)
	qdEnqSwing   // help CAS(&tail, tail, n) then return
	qdFulfil     // CAS(first.hole, open, v) + pair log
	qdFulfilHead // CAS(&head, head, first) then return or retry
	qdDeqRead    // read head and head.next
	qdDeqDecide  // read tail, decide mode, maybe allocate reservation
	qdDeqCAS     // CAS(&head, head, first) for a data dequeue
	qdResCAS     // CAS(tail.next, nil, r)
	qdResSwing   // help CAS(&tail, tail, r) then await
	qdAwait      // fulfilled -> return; else cancel
	qdRet
	qdHaltQ
	qdDoneQ
)

type dqNode struct {
	IsRes     bool
	Tid       history.ThreadID
	Data      int64
	Hole      int // dsNoHole (data), dsOpen, dsCancelled, 1 = fulfilled
	Next      int // node index or -1
	Fulfilled bool
}

type dqThread struct {
	pc    int
	op    int
	round int
	head  int // head snapshot
	tail  int // tail snapshot
	first int // head.next snapshot
	n     int // own node
	retOK bool
	retV  int64
}

// DQState is one state of the dual-queue model.
type DQState struct {
	cfg     *DQConfig
	Threads []dqThread
	Nodes   []dqNode // Nodes[0] is the initial dummy
	Head    int
	Tail    int
	Trace   trace.Trace
	Hist    history.History
}

var _ sched.State = (*DQState)(nil)

// NewDualQueue returns the initial state of the dual-queue model.
func NewDualQueue(cfg DQConfig) *DQState {
	if cfg.Object == "" {
		cfg.Object = "DQ"
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	st := &DQState{cfg: &cfg}
	st.Nodes = []dqNode{{Hole: dsNoHole, Next: -1}} // dummy
	st.Head, st.Tail = 0, 0
	for range cfg.Programs {
		st.Threads = append(st.Threads, dqThread{pc: qdIdle, head: -1, tail: -1, first: -1, n: -1})
	}
	return st
}

// Object returns the modelled queue's object id.
func (s *DQState) Object() history.ObjectID { return s.cfg.Object }

// History implements HT.
func (s *DQState) History() history.History { return shared(s.Hist) }

// AuxTrace implements HT.
func (s *DQState) AuxTrace() trace.Trace { return shared(s.Trace) }

// Key implements sched.State.
func (s *DQState) Key() string {
	k := newKey()
	k = k.section(len(s.Threads))
	for _, th := range s.Threads {
		k = k.ints(th.pc, th.op, th.round, th.head, th.tail, th.first, th.n)
		k = k.int64s(th.retV)
		k = k.flags(th.retOK)
	}
	k = k.ints(s.Head, s.Tail)
	k = k.section(len(s.Nodes))
	for _, n := range s.Nodes {
		k = k.ints(int(n.Tid), n.Hole, n.Next)
		k = k.int64s(n.Data)
		k = k.flags(n.IsRes, n.Fulfilled)
	}
	return k.finish(s.Trace, s.Hist)
}

// Done implements sched.State.
func (s *DQState) Done() bool {
	for _, th := range s.Threads {
		if th.pc != qdDoneQ {
			return false
		}
	}
	return true
}

// clone returns a successor ready for mutation: it copies what steps
// write in place (the threads and the nodes) and shares the append-only
// trace and history with s.
func (s *DQState) clone() *DQState {
	return &DQState{
		cfg:     s.cfg,
		Threads: append([]dqThread(nil), s.Threads...),
		Nodes:   append([]dqNode(nil), s.Nodes...),
		Head:    s.Head,
		Tail:    s.Tail,
		Trace:   shared(s.Trace),
		Hist:    shared(s.Hist),
	}
}

func (s *DQState) qOpOf(t int) QOp { return s.cfg.Programs[t][s.Threads[t].op] }

func (s *DQState) qRetry(c *DQState, t, backTo int) {
	nt := &c.Threads[t]
	nt.round++
	if nt.round >= s.cfg.Retries {
		nt.pc = qdHaltQ
		return
	}
	nt.pc = backTo
}

// Successors implements sched.State.
func (s *DQState) Successors() []sched.Succ {
	var out []sched.Succ
	for t := range s.Threads {
		if succ, ok := s.step(t); ok {
			out = append(out, succ)
		}
	}
	return out
}

func (s *DQState) step(t int) (sched.Succ, bool) {
	th := s.Threads[t]
	if th.pc == qdDoneQ || th.pc == qdHaltQ {
		return sched.Succ{}, false
	}
	id := tid(t)
	obj := s.cfg.Object
	op := s.qOpOf(t)
	mk := func(label string, next *DQState) (sched.Succ, bool) {
		return sched.Succ{Thread: t, Label: label, Next: next}, true
	}
	switch th.pc {
	case qdIdle:
		c := s.clone()
		nt := &c.Threads[t]
		nt.round = 0
		if op.IsEnq {
			c.Hist = append(c.Hist, history.Inv(id, obj, spec.MethodEnq, history.Int(op.V)))
			nt.pc = qdEnqRead
		} else {
			c.Hist = append(c.Hist, history.Inv(id, obj, spec.MethodDeq, history.Unit()))
			nt.pc = qdDeqRead
		}
		return mk("inv", c)
	case qdEnqRead:
		c := s.clone()
		nt := &c.Threads[t]
		nt.head = s.Head
		nt.first = s.Nodes[s.Head].Next
		nt.pc = qdEnqDecide
		return mk("read-head", c)
	case qdEnqDecide:
		c := s.clone()
		nt := &c.Threads[t]
		nt.tail = s.Tail
		appendMode := s.Tail == th.head || !s.Nodes[s.Tail].IsRes
		if s.cfg.HeadKindBug {
			// Defect: decide by the (possibly stale) head-side snapshot.
			appendMode = th.first == -1 || !s.Nodes[th.first].IsRes
		}
		if appendMode {
			if s.Nodes[s.Tail].Next != -1 {
				// Tail lagging: help swing, restart the attempt.
				c.Tail = s.Nodes[s.Tail].Next
				nt.pc = qdEnqRead
				return mk("tail-swing", c)
			}
			c.Nodes = append(c.Nodes, dqNode{Tid: id, Data: op.V, Hole: dsNoHole, Next: -1})
			nt.n = len(c.Nodes) - 1
			nt.pc = qdEnqCAS
			return mk("decide-append", c)
		}
		if th.first == -1 || !s.Nodes[th.first].IsRes {
			nt.pc = qdEnqRead // inconsistent snapshot: restart
			return mk("decide-retry", c)
		}
		nt.pc = qdFulfil
		return mk("decide-fulfil", c)
	case qdEnqCAS:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Nodes[th.tail].Next == -1 {
			c.Nodes[th.tail].Next = th.n
			c.Trace = append(c.Trace, trace.Singleton(trace.Operation{
				Thread: id, Object: obj, Method: spec.MethodEnq,
				Arg: history.Int(op.V), Ret: history.Bool(true),
			}))
			nt.pc = qdEnqSwing
			return mk("ENQ", c)
		}
		s.qRetry(c, t, qdEnqRead)
		return mk("enq-miss", c)
	case qdEnqSwing:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Tail == th.tail {
			c.Tail = th.n
		}
		nt.retOK = true
		nt.pc = qdRet
		return mk("tail-swing", c)
	case qdFulfil:
		c := s.clone()
		nt := &c.Threads[t]
		r := s.Nodes[th.first]
		if r.Hole == dsOpen {
			c.Nodes[th.first].Hole = 1
			c.Nodes[th.first].Fulfilled = true
			c.Nodes[th.first].Data = op.V
			c.Trace = append(c.Trace, spec.QFulfilmentElement(obj, id, op.V, r.Tid))
			nt.retOK = true
			nt.pc = qdFulfilHead
			return mk("FULFIL", c)
		}
		nt.retOK = false
		nt.pc = qdFulfilHead
		return mk("fulfil-miss", c)
	case qdFulfilHead:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Head == th.head {
			c.Head = th.first // dequeue the settled reservation
		}
		if th.retOK {
			nt.pc = qdRet
		} else {
			s.qRetry(c, t, qdEnqRead)
		}
		return mk("head-swing", c)
	case qdDeqRead:
		c := s.clone()
		nt := &c.Threads[t]
		nt.head = s.Head
		nt.first = s.Nodes[s.Head].Next
		nt.pc = qdDeqDecide
		return mk("read-head", c)
	case qdDeqDecide:
		c := s.clone()
		nt := &c.Threads[t]
		nt.tail = s.Tail
		reserveMode := s.Tail == th.head || s.Nodes[s.Tail].IsRes
		if s.cfg.HeadKindBug {
			reserveMode = th.first == -1 || s.Nodes[th.first].IsRes
		}
		if reserveMode {
			if s.Nodes[s.Tail].Next != -1 {
				c.Tail = s.Nodes[s.Tail].Next
				nt.pc = qdDeqRead
				return mk("tail-swing", c)
			}
			c.Nodes = append(c.Nodes, dqNode{IsRes: true, Tid: id, Hole: dsOpen, Next: -1})
			nt.n = len(c.Nodes) - 1
			nt.pc = qdResCAS
			return mk("decide-reserve", c)
		}
		if th.first == -1 || s.Nodes[th.first].IsRes {
			// Inconsistent snapshot or dead reservation: help and restart.
			if th.first != -1 && s.Nodes[th.first].IsRes &&
				s.Nodes[th.first].Hole != dsOpen && s.Head == th.head {
				c.Head = th.first
			}
			nt.pc = qdDeqRead
			return mk("decide-retry", c)
		}
		nt.pc = qdDeqCAS
		return mk("decide-deq", c)
	case qdDeqCAS:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Head == th.head {
			c.Head = th.first
			v := s.Nodes[th.first].Data
			c.Trace = append(c.Trace, trace.Singleton(trace.Operation{
				Thread: id, Object: obj, Method: spec.MethodDeq,
				Arg: history.Unit(), Ret: history.Pair(true, v),
			}))
			nt.retOK, nt.retV = true, v
			nt.pc = qdRet
			return mk("DEQ", c)
		}
		s.qRetry(c, t, qdDeqRead)
		return mk("deq-miss", c)
	case qdResCAS:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Nodes[th.tail].Next == -1 {
			c.Nodes[th.tail].Next = th.n
			nt.pc = qdResSwing
			return mk("RESERVE", c)
		}
		s.qRetry(c, t, qdDeqRead)
		return mk("reserve-miss", c)
	case qdResSwing:
		c := s.clone()
		nt := &c.Threads[t]
		if s.Tail == th.tail {
			c.Tail = th.n
		}
		nt.pc = qdAwait
		return mk("tail-swing", c)
	case qdAwait:
		c := s.clone()
		nt := &c.Threads[t]
		r := s.Nodes[th.n]
		if r.Fulfilled {
			nt.retOK, nt.retV = true, r.Data
			nt.pc = qdRet
			return mk("fulfilled", c)
		}
		c.Nodes[th.n].Hole = dsCancelled
		c.Trace = append(c.Trace, trace.Singleton(trace.Operation{
			Thread: id, Object: obj, Method: spec.MethodDeq,
			Arg: history.Unit(), Ret: history.Pair(false, 0),
		}))
		nt.retOK, nt.retV = false, 0
		nt.pc = qdRet
		return mk("CANCEL", c)
	case qdRet:
		c := s.clone()
		nt := &c.Threads[t]
		if op.IsEnq {
			c.Hist = append(c.Hist, history.Res(id, obj, spec.MethodEnq, history.Bool(true)))
		} else {
			c.Hist = append(c.Hist, history.Res(id, obj, spec.MethodDeq, history.Pair(th.retOK, th.retV)))
		}
		nt.op++
		nt.head, nt.tail, nt.first, nt.n, nt.round = -1, -1, -1, -1, 0
		if nt.op < len(s.cfg.Programs[t]) {
			nt.pc = qdIdle
		} else {
			nt.pc = qdDoneQ
		}
		return mk("res", c)
	default:
		return sched.Succ{}, false
	}
}
