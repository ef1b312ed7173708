package spec

import (
	"testing"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// TestStepAllocs bounds the allocations of Step where the search spends
// them: a step on a large collection state, and a pair probe the spec
// rejects, whose message nobody reads.
func TestStepAllocs(t *testing.T) {
	const n = 1000
	set, pq := NewSet("ST"), NewPQueue("PQ")
	ss, ps := set.Init(), pq.Init()
	for i := int64(0); i < n; i++ {
		ss, _ = set.Step(ss, single("ST", MethodAdd, history.Int(2*i), history.Bool(true)))
		ps, _ = pq.Step(ps, single("PQ", MethodInsert, history.Int(n-i), history.Bool(true)))
	}
	add := single("ST", MethodAdd, history.Int(n+1), history.Bool(true))
	extract := single("PQ", MethodExtractMin, history.Unit(), history.Pair(true, 1))
	sq := NewSyncQueue("SQ")
	mismatch := trace.MustElement(
		trace.Operation{Thread: 1, Object: "SQ", Method: MethodPut, Arg: history.Int(1), Ret: history.Bool(true)},
		trace.Operation{Thread: 2, Object: "SQ", Method: MethodTake, Arg: history.Unit(), Ret: history.Pair(true, 99)},
	)
	cases := []struct {
		name   string
		max    float64
		step   func() (State, error)
		reject bool
	}{
		{"set add", 2, func() (State, error) { return set.Step(ss, add) }, false},
		{"pqueue extractmin", 2, func() (State, error) { return pq.Step(ps, extract) }, false},
		{"rejected sync-queue pair", 1, func() (State, error) { return sq.Step(sq.Init(), mismatch) }, true},
	}
	for _, c := range cases {
		if _, err := c.step(); (err != nil) != c.reject {
			t.Fatalf("%s: err = %v", c.name, err)
		}
		if got := testing.AllocsPerRun(50, func() { _, _ = c.step() }); got > c.max {
			t.Errorf("%s allocates %.0f objects, want at most %.0f", c.name, got, c.max)
		}
	}
}
