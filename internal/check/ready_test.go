package check

import (
	"math/rand"
	"slices"
	"testing"

	"calgo/internal/history"
	"calgo/internal/spec"
)

// randomShapeHistory returns a well-formed history of 1–6 threads on two
// objects with ops invocations, some of whose last ones stay pending.
// Only its shape matters here: which operations overlap.
func randomShapeHistory(rng *rand.Rand, ops int) history.History {
	threads := 1 + rng.Intn(6)
	open := make([]history.ObjectID, threads+1) // per thread; "" = idle
	var h history.History
	respond := func(t int) {
		h = append(h, history.Res(history.ThreadID(t), open[t], spec.MethodExchange, history.Pair(false, 0)))
		open[t] = ""
	}
	for k := 0; k < ops; {
		t := 1 + rng.Intn(threads)
		if open[t] != "" {
			respond(t)
			continue
		}
		open[t] = history.ObjectID([]string{"A", "B"}[rng.Intn(2)])
		h = append(h, history.Inv(history.ThreadID(t), open[t], spec.MethodExchange, history.Int(int64(k))))
		k++
	}
	for t := range open {
		if open[t] != "" && rng.Intn(2) == 0 {
			respond(t)
		}
	}
	return h
}

// refReady is the ready set by Definition 3: the unlinearized operations
// whose ≺H predecessors are all linearized, in ascending order.
func refReady(rt [][]bool, lin bitset) []int32 {
	var ready []int32
	for i := range rt {
		if lin.get(i) {
			continue
		}
		blocked := false
		for j := range rt {
			if rt[j][i] && !lin.get(j) {
				blocked = true
				break
			}
		}
		if !blocked {
			ready = append(ready, int32(i))
		}
	}
	return ready
}

// TestReadyMatchesRTOrder checks pushReady's per-thread heads against
// the real-time order itself: along random search paths that linearize
// one ready operation at a time and sometimes unwind in LIFO order, the
// ready set equals refReady's and no two ready operations are ordered by
// ≺H, so compatible needs no real-time test.
func TestReadyMatchesRTOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		h := randomShapeHistory(rng, 1+rng.Intn(16))
		s := &searcher{ops: h.Operations()}
		s.setup()
		rt := history.RTOrder(s.ops)
		var path []int // linearized operations, oldest first
		for step := 0; step < 4*len(s.ops); step++ {
			ready := s.pushReady()
			if want := refReady(rt, s.linearized); !slices.Equal(ready, want) {
				t.Fatalf("history %d step %d, linearized %v: ready = %v, want %v\n%v", iter, step, path, ready, want, h)
			}
			for _, i := range ready {
				for _, j := range ready {
					if rt[i][j] {
						t.Fatalf("history %d step %d: ready ops %d and %d are ordered by ≺H\n%v", iter, step, i, j, h)
					}
				}
			}
			s.readyStack = s.readyStack[:0]
			if len(ready) == 0 {
				if s.nlin != len(s.ops) {
					t.Fatalf("history %d step %d: nothing ready with %d of %d ops linearized", iter, step, s.nlin, len(s.ops))
				}
				break
			}
			if len(path) > 0 && rng.Intn(4) == 0 {
				for k := 1 + rng.Intn(len(path)); k > 0; k-- {
					s.unlinearize(path[len(path)-1])
					path = path[:len(path)-1]
				}
				continue
			}
			i := int(ready[rng.Intn(len(ready))])
			s.linearize(i)
			path = append(path, i)
		}
	}
}
