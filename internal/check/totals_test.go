package check

import (
	"context"
	"math/rand"
	"testing"

	"calgo/internal/history"
	"calgo/internal/monitor"
	"calgo/internal/spec"
)

// totalsCase is one seeded DFS input of the totals corpus.
type totalsCase struct {
	sp  spec.Spec
	h   history.History
	cap int // element cap; 0 = the spec's own bound
}

// renameMethods maps a generated history onto another interface with the
// same argument and return shapes (e.g. a queue history onto put/take).
func renameMethods(h history.History, names map[history.Method]history.Method) history.History {
	out := make(history.History, len(h))
	for i, e := range h {
		e.Method = names[e.Method]
		out[i] = e
	}
	return out
}

// interleave merges two histories, keeping each one's event order.
func interleave(rng *rand.Rand, a, b history.History) history.History {
	out := make(history.History, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || (len(a) > 0 && rng.Intn(2) == 0) {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return out
}

// shiftThreads renames every thread t to t+by.
func shiftThreads(h history.History, by history.ThreadID) history.History {
	out := make(history.History, len(h))
	for i, e := range h {
		e.Thread += by
		out[i] = e
	}
	return out
}

// genRegister draws write/read operations over a small value universe,
// each linearized at its invocation while responses are delayed.
func genRegister(rng *rand.Rand, nOps, threads int) history.History {
	var h history.History
	var cur int64
	type pend struct {
		t   history.ThreadID
		m   history.Method
		ret history.Value
	}
	var busy []pend
	free := make([]history.ThreadID, threads)
	for i := range free {
		free[i] = history.ThreadID(i + 1)
	}
	for started := 0; started < nOps || len(busy) > 0; {
		if started < nOps && len(free) > 0 && (len(busy) == 0 || rng.Intn(2) == 0) {
			t := free[len(free)-1]
			free = free[:len(free)-1]
			if rng.Intn(2) == 0 {
				cur = int64(rng.Intn(3))
				h = append(h, history.Inv(t, "R", spec.MethodWrite, history.Int(cur)))
				busy = append(busy, pend{t, spec.MethodWrite, history.Unit()})
			} else {
				h = append(h, history.Inv(t, "R", spec.MethodRead, history.Unit()))
				busy = append(busy, pend{t, spec.MethodRead, history.Int(cur)})
			}
			started++
			continue
		}
		i := rng.Intn(len(busy))
		p := busy[i]
		busy = append(busy[:i], busy[i+1:]...)
		h = append(h, history.Res(p.t, "R", p.m, p.ret))
		free = append(free, p.t)
	}
	return h
}

// genSnapshot lets every one of n threads update once, in blocks: a
// block's updates are all invoked before any responds, and each returns
// the cumulative count through its block.
func genSnapshot(rng *rand.Rand, n int) history.History {
	var h history.History
	order := rng.Perm(n)
	count := 0
	for len(order) > 0 {
		size := 1 + rng.Intn(len(order))
		block := order[:size]
		order = order[size:]
		count += size
		for _, t := range block {
			h = append(h, history.Inv(history.ThreadID(t+1), "IS", spec.MethodUpdate, history.Int(int64(rng.Intn(3)))))
		}
		for _, k := range rng.Perm(size) {
			h = append(h, history.Res(history.ThreadID(block[k]+1), "IS", spec.MethodUpdate, history.Pair(true, int64(count))))
		}
	}
	return h
}

// mutateResponse rewrites one response value, which usually makes the
// history Unsat.
func mutateResponse(rng *rand.Rand, h history.History) history.History {
	var resp []int
	for i, e := range h {
		if e.Kind == history.Respond {
			resp = append(resp, i)
		}
	}
	if len(resp) == 0 {
		return h
	}
	out := append(history.History(nil), h...)
	e := &out[resp[rng.Intn(len(resp))]]
	switch e.Ret.Kind {
	case history.KindBool:
		e.Ret.B = !e.Ret.B
	case history.KindPair:
		if rng.Intn(2) == 0 {
			e.Ret.B = !e.Ret.B
		} else {
			e.Ret.N++
		}
	case history.KindInt:
		e.Ret.N++
	}
	return out
}

// totalsCorpus builds n seeded inputs per specification: monitor.Gen*
// histories of 4–40 operations on 1–4 threads (renamed for the sync
// queue), register and snapshot histories, and a queue×stack product. A
// third are mutated and a third truncated, leaving pending operations;
// every input runs both capped at element size 1 and uncapped.
func totalsCorpus(n int) []totalsCase {
	rng := rand.New(rand.NewSource(27))
	toSync := map[history.Method]history.Method{spec.MethodEnq: spec.MethodPut, spec.MethodDeq: spec.MethodTake}
	type source struct {
		sp  spec.Spec
		gen func(nOps, threads int, seed int64) history.History
	}
	gen := func(g func(int, int, int64, history.ObjectID) history.History, o history.ObjectID) func(int, int, int64) history.History {
		return func(nOps, threads int, seed int64) history.History { return g(nOps, threads, seed, o) }
	}
	sources := []source{
		{spec.NewQueue("Q"), gen(monitor.GenQueue, "Q")},
		{spec.NewDualQueue("Q"), gen(monitor.GenQueue, "Q")},
		{spec.NewStack("S"), gen(monitor.GenStack, "S")},
		{spec.NewDualStack("S"), gen(monitor.GenStack, "S")},
		{spec.NewCentralStack("S"), gen(monitor.GenStack, "S")},
		{spec.NewSet("ST"), gen(monitor.GenSet, "ST")},
		{spec.NewPQueue("PQ"), gen(monitor.GenPQueue, "PQ")},
		{spec.NewSyncQueue("SQ"), func(nOps, threads int, seed int64) history.History {
			return renameMethods(monitor.GenQueue(nOps, threads, seed, "SQ"), toSync)
		}},
		{spec.NewRegister("R"), func(nOps, threads int, seed int64) history.History {
			return genRegister(rand.New(rand.NewSource(seed)), nOps, threads)
		}},
		{spec.NewSnapshot("IS", 6), func(_, threads int, seed int64) history.History {
			return genSnapshot(rand.New(rand.NewSource(seed)), threads+2)
		}},
		{spec.MustProduct(spec.NewQueue("Q"), spec.NewStack("S")), func(nOps, threads int, seed int64) history.History {
			r := rand.New(rand.NewSource(seed))
			q := monitor.GenQueue(nOps/2, threads, seed, "Q")
			s := shiftThreads(monitor.GenStack(nOps-nOps/2, threads, seed+1, "S"), history.ThreadID(threads))
			return interleave(r, q, s)
		}},
	}
	var out []totalsCase
	for _, src := range sources {
		for i := 0; i < n; i++ {
			h := src.gen(4+rng.Intn(37), 1+rng.Intn(4), rng.Int63())
			switch i % 3 {
			case 1:
				h = mutateResponse(rng, h)
			case 2:
				h = h[:rng.Intn(len(h)+1)]
			}
			out = append(out, totalsCase{sp: src.sp, h: h}, totalsCase{sp: src.sp, h: h, cap: 1})
		}
	}
	return out
}

// TestDFSTotalsAcrossSpecs pins the DFS's totals over a seeded corpus
// under every stateful specification and one product. A spec-state key
// that merged two distinct states would prune nodes it must not, and
// one that split equal states would miss memo hits; either moves the
// States and MemoHits sums.
func TestDFSTotalsAcrossSpecs(t *testing.T) {
	var states, hits int
	verdicts := map[Verdict]int{}
	for _, c := range totalsCorpus(60) {
		opts := []Option{WithEngine(EngineDFS), WithMaxStates(1_500)}
		if c.cap > 0 {
			opts = append(opts, WithElementCap(c.cap))
		}
		res, err := CAL(context.Background(), c.h, c.sp, opts...)
		if err != nil {
			t.Fatalf("%s on %v: %v", c.sp.Name(), c.h, err)
		}
		states += res.States
		hits += res.MemoHits
		verdicts[res.Verdict]++
	}
	t.Logf("states=%d memo_hits=%d sat=%d unsat=%d unknown=%d",
		states, hits, verdicts[Sat], verdicts[Unsat], verdicts[Unknown])
	const wantStates, wantHits, wantSat, wantUnsat, wantUnknown = 40799, 13983, 791, 523, 6
	if states != wantStates || hits != wantHits || verdicts[Sat] != wantSat ||
		verdicts[Unsat] != wantUnsat || verdicts[Unknown] != wantUnknown {
		t.Errorf("totals: states=%d memo_hits=%d sat=%d unsat=%d unknown=%d; want %d %d %d %d %d",
			states, hits, verdicts[Sat], verdicts[Unsat], verdicts[Unknown],
			wantStates, wantHits, wantSat, wantUnsat, wantUnknown)
	}
}
