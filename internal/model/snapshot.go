package model

import (
	"sort"
	"strconv"

	"calgo/internal/history"
	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// ISConfig describes the immediate-snapshot model: participant t+1 writes
// Values[t] and descends levels. The model is register-accurate: each
// level write and each read of another participant's level register is its
// own atomic step, so the exploration checks the Borowsky-Gafni algorithm
// under non-atomic scans — the property its correctness argument actually
// hinges on.
type ISConfig struct {
	// Object is the snapshot's id (default "IS").
	Object history.ObjectID
	// Values[t] is the value participant t+1 writes (one-shot).
	Values []int64
}

// Program counters of the immediate-snapshot step machine.
const (
	ipcIdle     = iota // emit inv, write own value
	ipcSetLevel        // level[p] = lev
	ipcScan            // read level[scanIdx]
	ipcCheck           // |members| == lev ? return : descend
	ipcRet
	ipcDoneIS
)

type isThread struct {
	pc      int
	lev     int
	scanIdx int
	members int // bitmask of participants seen at level <= lev
	retCard int
}

// isModel is an immediate-snapshot configuration together with its step
// labels, built once so that no step formats a string.
type isModel struct {
	ISConfig
	setLevel []string // setLevel[lev] is "set-level[lev]"
}

// ISState is one state of the immediate-snapshot model.
type ISState struct {
	cfg     *isModel
	Threads []isThread
	Levels  []int
	Trace   trace.Trace // derived blocks appended at return, in return order
	Hist    history.History
}

var _ sched.State = (*ISState)(nil)

// NewSnapshot returns the initial state of the immediate-snapshot model.
func NewSnapshot(cfg ISConfig) *ISState {
	if cfg.Object == "" {
		cfg.Object = "IS"
	}
	n := len(cfg.Values)
	m := &isModel{ISConfig: cfg}
	for lev := 0; lev <= n; lev++ {
		m.setLevel = append(m.setLevel, "set-level["+strconv.Itoa(lev)+"]")
	}
	st := &ISState{cfg: m, Levels: make([]int, n)}
	for i := range st.Levels {
		st.Levels[i] = n + 1
	}
	for range cfg.Values {
		st.Threads = append(st.Threads, isThread{pc: ipcIdle})
	}
	return st
}

// Object returns the modelled snapshot's object id.
func (s *ISState) Object() history.ObjectID { return s.cfg.Object }

// History implements HT.
func (s *ISState) History() history.History { return shared(s.Hist) }

// AuxTrace returns the trace of return-ordered operations; use Project to
// group them into blocks by cardinality before checking the spec.
func (s *ISState) AuxTrace() trace.Trace { return shared(s.Trace) }

// Project groups the return-ordered singleton operations into blocks by
// view cardinality, ordered by cardinality — the quiescent derivation of
// DeriveTrace, inside the model.
func (s *ISState) Project(tr trace.Trace) trace.Trace {
	byCard := map[int64][]trace.Operation{}
	var cards []int64
	for _, el := range tr {
		op := el.Ops[0]
		c := op.Ret.N
		if len(byCard[c]) == 0 {
			cards = append(cards, c)
		}
		byCard[c] = append(byCard[c], op)
	}
	sort.Slice(cards, func(i, j int) bool { return cards[i] < cards[j] })
	var out trace.Trace
	for _, c := range cards {
		el, err := trace.NewElement(byCard[c]...)
		if err != nil {
			// Invalid block (e.g. duplicate thread): surface it as an
			// impossible trace so the spec check fails loudly.
			return trace.Trace{}
		}
		out = append(out, el)
	}
	return out
}

// Key implements sched.State.
func (s *ISState) Key() string {
	k := newKey()
	k = k.section(len(s.Threads))
	for _, th := range s.Threads {
		k = k.ints(th.pc, th.lev, th.scanIdx, th.members, th.retCard)
	}
	k = k.section(len(s.Levels))
	k = k.ints(s.Levels...)
	return k.finish(s.Trace, s.Hist)
}

// Done implements sched.State.
func (s *ISState) Done() bool {
	for _, th := range s.Threads {
		if th.pc != ipcDoneIS {
			return false
		}
	}
	return true
}

// clone returns a successor ready for mutation: it copies what steps
// write in place (the threads and the levels) and shares the
// append-only trace and history with s.
func (s *ISState) clone() *ISState {
	return &ISState{
		cfg:     s.cfg,
		Threads: append([]isThread(nil), s.Threads...),
		Levels:  append([]int(nil), s.Levels...),
		Trace:   shared(s.Trace),
		Hist:    shared(s.Hist),
	}
}

// Successors implements sched.State.
func (s *ISState) Successors() []sched.Succ {
	var out []sched.Succ
	for t := range s.Threads {
		if succ, ok := s.step(t); ok {
			out = append(out, succ)
		}
	}
	return out
}

func (s *ISState) step(t int) (sched.Succ, bool) {
	th := s.Threads[t]
	id := tid(t)
	obj := s.cfg.Object
	n := len(s.cfg.Values)
	mk := func(label string, next *ISState) (sched.Succ, bool) {
		return sched.Succ{Thread: t, Label: label, Next: next}, true
	}
	switch th.pc {
	case ipcIdle:
		// inv + value write (the value register is written once, before
		// any level activity, so folding them is safe).
		c := s.clone()
		c.Hist = append(c.Hist, history.Inv(id, obj, spec.MethodUpdate, history.Int(s.cfg.Values[t])))
		nt := &c.Threads[t]
		nt.lev = n
		nt.pc = ipcSetLevel
		return mk("inv", c)
	case ipcSetLevel:
		// level[p] = lev — one register write.
		c := s.clone()
		c.Levels[t] = th.lev
		nt := &c.Threads[t]
		nt.scanIdx = 0
		nt.members = 0
		nt.pc = ipcScan
		return mk(s.cfg.setLevel[th.lev], c)
	case ipcScan:
		// Read level[scanIdx] — one register read per step.
		c := s.clone()
		nt := &c.Threads[t]
		if s.Levels[th.scanIdx] <= th.lev {
			nt.members |= 1 << th.scanIdx
		}
		nt.scanIdx++
		if nt.scanIdx == n {
			nt.pc = ipcCheck
		}
		return mk("read-level", c)
	case ipcCheck:
		// Local: count members; terminate at |members| == lev.
		c := s.clone()
		nt := &c.Threads[t]
		count := 0
		for q := 0; q < n; q++ {
			if th.members&(1<<q) != 0 {
				count++
			}
		}
		if count == th.lev {
			nt.retCard = count
			nt.pc = ipcRet
			return mk("terminate", c)
		}
		nt.lev--
		if nt.lev < 1 {
			// Unreachable if the algorithm is correct: the exploration
			// flags it as a deadlocked thread.
			nt.pc = ipcDoneIS
			nt.retCard = -1
			return mk("fell-through", c)
		}
		nt.pc = ipcSetLevel
		return mk("descend", c)
	case ipcRet:
		c := s.clone()
		nt := &c.Threads[t]
		// Self-inclusion is checked structurally here: the view must
		// contain the caller.
		if th.members&(1<<t) == 0 {
			nt.retCard = -1 // flagged by the terminal check
		}
		c.Trace = append(c.Trace, trace.Singleton(trace.Operation{
			Thread: id, Object: obj, Method: spec.MethodUpdate,
			Arg: history.Int(s.cfg.Values[t]), Ret: history.Pair(true, int64(th.retCard)),
		}))
		c.Hist = append(c.Hist, history.Res(id, obj, spec.MethodUpdate, history.Pair(true, int64(th.retCard))))
		nt.pc = ipcDoneIS
		return mk("res", c)
	default:
		return sched.Succ{}, false
	}
}
