package main

import (
	"math"
	"math/rand"

	"calgo/internal/history"
	"calgo/internal/spec"
)

// The generators below make the benchmark's inputs from a seed, each with
// its verdict known by construction:
//
//   - Sat inputs come from a sequential witness: every operation takes
//     effect at its invocation (collections) or its round (CA-objects),
//     and responses are delayed to create real overlap.
//   - Unsat inputs carry one planted defect that no linearization can
//     explain: a removal that returns a value never inserted, an exchange
//     or take that receives a value nobody offered, a snapshot view larger
//     than the number of writers.
//
// The program under test receives only the rendered interchange text.

// Input is one generated history with its known answer.
type Input struct {
	Name    string
	Spec    string // jobs.SpecByName vocabulary
	Object  string
	Threads int // snapshot participant bound; 0 otherwise
	Text    string
	Events  int
	Sat     bool
	// DefectEvent is the stream index of the response that makes the
	// prefix non-linearizable; -1 for Sat inputs.
	DefectEvent int
}

// neverBase is the first value no generator ever inserts: fresh values
// count up from 0 and "absent" probes count down from -1.
const neverBase = -1 << 40

// collection is one sequential collection object driven by the witness:
// next draws an operation, applies it and returns its method, argument and
// return value; with dup set it repeats an earlier value if the drawn
// operation is an insertion that can, and reports whether it did. bogus
// returns a removal whose result no state can produce.
type collection interface {
	next(r *rand.Rand, dup bool) (history.Method, history.Value, history.Value, bool)
	bogus(v int64) (history.Method, history.Value, history.Value)
}

// newCollection returns the witness for kind ("queue", "stack", "set",
// "pqueue").
func newCollection(kind string) collection {
	switch kind {
	case "queue":
		return &seqQueue{}
	case "stack":
		return &seqQueue{lifo: true}
	case "set":
		return &seqSet{}
	case "pqueue":
		return &seqPQueue{}
	}
	panic("perfbench: unknown collection " + kind)
}

type seqQueue struct {
	lifo     bool
	items    []int64
	inserted []int64
	fresh    int64
}

func (q *seqQueue) methods() (history.Method, history.Method) {
	if q.lifo {
		return spec.MethodPush, spec.MethodPop
	}
	return spec.MethodEnq, spec.MethodDeq
}

func (q *seqQueue) next(r *rand.Rand, dup bool) (history.Method, history.Value, history.Value, bool) {
	ins, rem := q.methods()
	if len(q.items) == 0 && r.Float64() < 0.15 {
		return rem, history.Unit(), history.Pair(false, 0), false
	}
	if len(q.items) == 0 || r.Float64() < 0.55 {
		v := q.fresh
		dup = dup && len(q.inserted) > 0
		if dup {
			v = q.inserted[r.Intn(len(q.inserted))]
		} else {
			q.fresh++
		}
		q.items = append(q.items, v)
		q.inserted = append(q.inserted, v)
		return ins, history.Int(v), history.Bool(true), dup
	}
	var v int64
	if q.lifo {
		v = q.items[len(q.items)-1]
		q.items = q.items[:len(q.items)-1]
	} else {
		v = q.items[0]
		q.items = q.items[1:]
	}
	return rem, history.Unit(), history.Pair(true, v), false
}

func (q *seqQueue) bogus(v int64) (history.Method, history.Value, history.Value) {
	_, rem := q.methods()
	return rem, history.Unit(), history.Pair(true, v)
}

type seqSet struct {
	present        []int64
	removed        []int64
	fresh, absence int64
}

func (s *seqSet) next(r *rand.Rand, dup bool) (history.Method, history.Value, history.Value, bool) {
	p := r.Float64()
	switch {
	case p < 0.40 || len(s.present) == 0:
		v := s.fresh
		// A set repeats a value by adding one it removed earlier.
		dup = dup && len(s.removed) > 0
		if dup {
			i := r.Intn(len(s.removed))
			v = s.removed[i]
			s.removed[i] = s.removed[len(s.removed)-1]
			s.removed = s.removed[:len(s.removed)-1]
		} else {
			s.fresh++
		}
		s.present = append(s.present, v)
		return spec.MethodAdd, history.Int(v), history.Bool(true), dup
	case p < 0.60:
		i := r.Intn(len(s.present))
		v := s.present[i]
		s.present[i] = s.present[len(s.present)-1]
		s.present = s.present[:len(s.present)-1]
		s.removed = append(s.removed, v)
		return spec.MethodRemove, history.Int(v), history.Bool(true), false
	case p < 0.70:
		s.absence--
		return spec.MethodRemove, history.Int(s.absence), history.Bool(false), false
	case p < 0.85:
		return spec.MethodContains, history.Int(s.present[r.Intn(len(s.present))]), history.Bool(true), false
	default:
		s.absence--
		return spec.MethodContains, history.Int(s.absence), history.Bool(false), false
	}
}

func (s *seqSet) bogus(v int64) (history.Method, history.Value, history.Value) {
	return spec.MethodRemove, history.Int(v), history.Bool(true)
}

type seqPQueue struct {
	heap     []int64
	inserted []int64
	fresh    int64
}

func (q *seqPQueue) next(r *rand.Rand, dup bool) (history.Method, history.Value, history.Value, bool) {
	if len(q.heap) == 0 && r.Float64() < 0.15 {
		return spec.MethodExtractMin, history.Unit(), history.Pair(false, 0), false
	}
	if len(q.heap) == 0 || r.Float64() < 0.55 {
		// Random high bits scramble the extraction order; the counter in
		// the low bits keeps fresh priorities distinct.
		v := r.Int63n(1<<30)<<21 | q.fresh
		dup = dup && len(q.inserted) > 0
		if dup {
			v = q.inserted[r.Intn(len(q.inserted))]
		} else {
			q.fresh++
		}
		q.inserted = append(q.inserted, v)
		q.push(v)
		return spec.MethodInsert, history.Int(v), history.Bool(true), dup
	}
	return spec.MethodExtractMin, history.Unit(), history.Pair(true, q.pop()), false
}

func (q *seqPQueue) bogus(v int64) (history.Method, history.Value, history.Value) {
	return spec.MethodExtractMin, history.Unit(), history.Pair(true, v)
}

func (q *seqPQueue) push(v int64) {
	q.heap = append(q.heap, v)
	for i := len(q.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if q.heap[p] <= q.heap[i] {
			break
		}
		q.heap[p], q.heap[i] = q.heap[i], q.heap[p]
		i = p
	}
}

func (q *seqPQueue) pop() int64 {
	v := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	for i := 0; ; {
		l, rt, small := 2*i+1, 2*i+2, i
		if l < len(q.heap) && q.heap[l] < q.heap[small] {
			small = l
		}
		if rt < len(q.heap) && q.heap[rt] < q.heap[small] {
			small = rt
		}
		if small == i {
			return v
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
}

// collectionObject is the object identifier of each collection kind.
var collectionObject = map[string]string{"queue": "Q", "stack": "S", "set": "T", "pqueue": "P"}

// shape describes one collection history.
type shape struct {
	kind         string
	ops, threads int
	dupAt        int // first operation that may repeat a value (exactly one repeat); -1 for none
	defectAt     int // operation that returns a never-inserted value; -1 for none
	orderly      bool
}

// genCollection interleaves the operations of sh over its threads. Each
// operation takes effect at its invocation; its response is emitted later,
// after a random number of other events. Orderly histories answer the
// oldest pending call most of the time, which keeps overlaps short; the
// others answer a random pending call. It returns the history and the
// index of the defective response (-1 when there is none).
func genCollection(r *rand.Rand, sh shape) (history.History, int) {
	obj := history.ObjectID(collectionObject[sh.kind])
	col := newCollection(sh.kind)
	type pend struct {
		t  history.ThreadID
		e  history.Event
		op int
	}
	free := make([]history.ThreadID, sh.threads)
	for i := range free {
		free[i] = history.ThreadID(i + 1)
	}
	var busy []pend
	h := make(history.History, 0, 2*sh.ops)
	defectEvent := -1
	dupDone := sh.dupAt < 0
	for started := 0; started < sh.ops || len(busy) > 0; {
		if started < sh.ops && len(free) > 0 && (len(busy) == 0 || r.Float64() < 0.6) {
			i := r.Intn(len(free))
			t := free[i]
			free[i] = free[len(free)-1]
			free = free[:len(free)-1]
			m, arg, ret, dup := col.next(r, !dupDone && started >= sh.dupAt)
			dupDone = dupDone || dup
			if started == sh.defectAt {
				m, arg, ret = col.bogus(neverBase - int64(started))
			}
			h = append(h, history.Inv(t, obj, m, arg))
			busy = append(busy, pend{t: t, e: history.Res(t, obj, m, ret), op: started})
			started++
			continue
		}
		i := r.Intn(len(busy))
		if sh.orderly && r.Float64() < 0.8 {
			i = 0
		}
		p := busy[i]
		busy = append(busy[:i], busy[i+1:]...)
		if p.op == sh.defectAt {
			defectEvent = len(h)
		}
		h = append(h, p.e)
		free = append(free, p.t)
	}
	return h, defectEvent
}

// collectionInput renders a collection history as an Input.
func collectionInput(r *rand.Rand, name string, sh shape) Input {
	h, ev := genCollection(r, sh)
	return Input{Name: name, Spec: sh.kind, Object: collectionObject[sh.kind], Text: history.Format(h),
		Events: len(h), Sat: sh.defectAt < 0, DefectEvent: ev}
}

// stratified draws the size of the i-th of n inputs: a point in the i-th
// of n equal slices of [lo, hi] on a log scale, so every decade of sizes
// is equally represented and every seed gets the same spread of sizes.
func stratified(r *rand.Rand, i, n, lo, hi int) int {
	f := (float64(i) + r.Float64()) / float64(n)
	return int(math.Round(math.Exp(math.Log(float64(lo)) + f*(math.Log(float64(hi))-math.Log(float64(lo))))))
}

// caRound appends one round of w overlapping operations: all invocations
// in random order, then all responses in random order, so every pairing
// inside the round is allowed by real time.
func caRound(r *rand.Rand, h history.History, invs, ress []history.Event) history.History {
	r.Shuffle(len(invs), func(i, j int) { invs[i], invs[j] = invs[j], invs[i] })
	r.Shuffle(len(ress), func(i, j int) { ress[i], ress[j] = ress[j], ress[i] })
	h = append(h, invs...)
	return append(h, ress...)
}

// genExchanger builds the given number of rounds of exchange calls of
// width 2..6 among distinct threads: shuffled pairs swap values, an odd
// one out fails. The defect makes one successful exchange receive a value
// nobody offered.
func genExchanger(r *rand.Rand, name string, rounds int, unsat bool) Input {
	const obj = history.ObjectID("E")
	defectRound := -1
	if unsat {
		defectRound = r.Intn(rounds)
	}
	var h history.History
	var fresh int64 = 1
	defectEvent := -1
	for rd := 0; rd < rounds; rd++ {
		w := 2 + r.Intn(5)
		ts := r.Perm(8)[:w]
		invs := make([]history.Event, w)
		ress := make([]history.Event, w)
		args := make([]int64, w)
		for i := range ts {
			args[i] = fresh
			fresh++
			invs[i] = history.Inv(history.ThreadID(ts[i]+1), obj, spec.MethodExchange, history.Int(args[i]))
		}
		for i := 0; i+1 < w; i += 2 {
			ress[i] = history.Res(history.ThreadID(ts[i]+1), obj, spec.MethodExchange, history.Pair(true, args[i+1]))
			ress[i+1] = history.Res(history.ThreadID(ts[i+1]+1), obj, spec.MethodExchange, history.Pair(true, args[i]))
		}
		if w%2 == 1 {
			ress[w-1] = history.Res(history.ThreadID(ts[w-1]+1), obj, spec.MethodExchange, history.Pair(false, args[w-1]))
		}
		if rd == defectRound {
			ress[0].Ret = history.Pair(true, neverBase-int64(rd))
		}
		bad := ress[0]
		h = caRound(r, h, invs, ress)
		if rd == defectRound {
			defectEvent = indexOf(h, bad)
		}
	}
	return Input{Name: name, Spec: "exchanger", Object: string(obj), Text: history.Format(h),
		Events: len(h), Sat: !unsat, DefectEvent: defectEvent}
}

// genSyncQueue builds the given number of hand-off rounds: k put/take
// pairs that rendezvous, plus sometimes a timed-out take or put. The
// defect makes one take receive a value nobody put.
func genSyncQueue(r *rand.Rand, name string, rounds int, unsat bool) Input {
	const obj = history.ObjectID("SQ")
	defectRound := -1
	if unsat {
		defectRound = r.Intn(rounds)
	}
	var h history.History
	var fresh int64 = 1
	defectEvent := -1
	for rd := 0; rd < rounds; rd++ {
		pairs := 1 + r.Intn(3)
		extra := r.Intn(3) // 0: none, 1: failed take, 2: failed put
		w := 2*pairs + min(extra, 1)
		ts := r.Perm(8)[:w]
		var invs, ress []history.Event
		var bad history.Event
		for p := 0; p < pairs; p++ {
			putter, taker := history.ThreadID(ts[2*p]+1), history.ThreadID(ts[2*p+1]+1)
			v := fresh
			fresh++
			got := history.Pair(true, v)
			if rd == defectRound && p == 0 {
				got = history.Pair(true, neverBase-int64(rd))
			}
			invs = append(invs, history.Inv(putter, obj, spec.MethodPut, history.Int(v)),
				history.Inv(taker, obj, spec.MethodTake, history.Unit()))
			take := history.Res(taker, obj, spec.MethodTake, got)
			if p == 0 {
				bad = take
			}
			ress = append(ress, history.Res(putter, obj, spec.MethodPut, history.Bool(true)), take)
		}
		switch extra {
		case 1:
			t := history.ThreadID(ts[w-1] + 1)
			invs = append(invs, history.Inv(t, obj, spec.MethodTake, history.Unit()))
			ress = append(ress, history.Res(t, obj, spec.MethodTake, history.Pair(false, 0)))
		case 2:
			t := history.ThreadID(ts[w-1] + 1)
			v := fresh
			fresh++
			invs = append(invs, history.Inv(t, obj, spec.MethodPut, history.Int(v)))
			ress = append(ress, history.Res(t, obj, spec.MethodPut, history.Bool(false)))
		}
		h = caRound(r, h, invs, ress)
		if rd == defectRound {
			defectEvent = indexOf(h, bad)
		}
	}
	return Input{Name: name, Spec: "syncqueue", Object: string(obj), Text: history.Format(h),
		Events: len(h), Sat: !unsat, DefectEvent: defectEvent}
}

// genSnapshot builds one immediate-snapshot execution: n threads update
// once each, grouped into blocks that overlap internally and follow each
// other in real time; every update returns the number of writers through
// its own block. The defect reports a view larger than the writer count.
func genSnapshot(r *rand.Rand, name string, unsat bool) Input {
	const obj = history.ObjectID("IS")
	n := 2 + r.Intn(5)
	ts := r.Perm(n)
	var h history.History
	done := 0
	defectEvent := -1
	for done < n {
		size := 1 + r.Intn(n-done)
		card := int64(done + size)
		var invs, ress []history.Event
		for _, t := range ts[done : done+size] {
			tid := history.ThreadID(t + 1)
			invs = append(invs, history.Inv(tid, obj, spec.MethodUpdate, history.Int(int64(100+t))))
			ress = append(ress, history.Res(tid, obj, spec.MethodUpdate, history.Pair(true, card)))
		}
		if unsat && done+size == n {
			ress[0].Ret = history.Pair(true, int64(n+1))
		}
		bad := ress[0]
		h = caRound(r, h, invs, ress)
		if unsat && done+size == n {
			defectEvent = indexOf(h, bad)
		}
		done += size
	}
	return Input{Name: name, Spec: "snapshot", Object: string(obj), Threads: n, Text: history.Format(h),
		Events: len(h), Sat: !unsat, DefectEvent: defectEvent}
}

func indexOf(h history.History, e history.Event) int {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i] == e {
			return i
		}
	}
	return -1
}
