package check

import (
	"encoding/binary"
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
func refReady(rt [][]bool, lin []bool) []int32 {
	var ready []int32
	for i := range rt {
		if lin[i] {
			continue
		}
		blocked := false
		for j := range rt {
			if rt[j][i] && !lin[j] {
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

// TestReadyMatchesRTOrder checks the per-thread heads against the
// real-time order itself: along random search paths that linearize one
// ready operation at a time and sometimes unwind in LIFO order, the
// heads name exactly the path's operations, the ready set equals
// refReady's, no two ready operations are ordered by ≺H (so compatible
// needs no real-time test), and two nodes get the same memo key iff
// they have the same linearized set and spec-state key.
func TestReadyMatchesRTOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		h := randomShapeHistory(rng, 1+rng.Intn(16))
		s := &searcher{ops: h.Operations()}
		s.setup()
		rt := history.RTOrder(s.ops)
		// Spec-state keys that read like uvarint heads, so a key that
		// does not delimit its heads from the spec key collides.
		specKeys := []string{""}
		for j := 0; j <= len(s.ops)+1; j++ {
			specKeys = append(specKeys, string(binary.AppendUvarint(nil, uint64(j))))
		}
		keyOf := map[string]string{}  // reference set + spec key -> memo key
		nodeOf := map[string]string{} // memo key -> reference set + spec key
		var path []int                // linearized operations, oldest first
		lin := make([]bool, len(s.ops))
		for step := 0; step < 4*len(s.ops); step++ {
			ref := make([]byte, len(s.ops))
			for i := range s.ops {
				head := s.head[s.thread[i]]
				if got := head == -1 || int32(i) < head; got != lin[i] {
					t.Fatalf("history %d step %d, linearized %v: heads %v say op %d linearized = %v\n%v", iter, step, path, s.head, i, got, h)
				}
				ref[i] = '0'
				if lin[i] {
					ref[i] = '1'
				}
			}
			for _, sk := range specKeys {
				node := string(ref) + "|" + sk
				key := string(s.memoKey(sk))
				if k, ok := keyOf[node]; ok && k != key {
					t.Fatalf("history %d step %d: node %q got memo keys %q and %q", iter, step, node, k, key)
				}
				if n, ok := nodeOf[key]; ok && n != node {
					t.Fatalf("history %d step %d: nodes %q and %q share memo key %q\n%v", iter, step, n, node, key, h)
				}
				keyOf[node], nodeOf[key] = key, node
			}
			ready := s.pushReady()
			if want := refReady(rt, lin); !slices.Equal(ready, want) {
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
					lin[path[len(path)-1]] = false
					path = path[:len(path)-1]
				}
				continue
			}
			i := int(ready[rng.Intn(len(ready))])
			s.linearize(i)
			lin[i] = true
			path = append(path, i)
		}
	}
}
