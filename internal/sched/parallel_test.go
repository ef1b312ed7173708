package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExploreParallelMatchesSequential pins the semantics contract of the
// work-stealing engine: States, Transitions and Terminals are properties
// of the state graph, not the traversal, so every worker count must
// report the same numbers.
func TestExploreParallelMatchesSequential(t *testing.T) {
	init := counterState{remaining: []int{4, 4, 4}}
	want, err := Explore(context.Background(), init, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got, err := Explore(context.Background(), init, WithParallelism(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if got.States != want.States || got.Transitions != want.Transitions || got.Terminals != want.Terminals {
			t.Errorf("parallelism %d: stats %+v, want %+v", par, got, want)
		}
	}
}

// TestInvariantRunsOncePerState pins the satellite fix: the invariant is
// evaluated when a state is claimed (expanded), not on every incoming
// edge, so on the 2x2 increment grid (9 states, 12 transitions) it must
// run exactly 9 times.
func TestInvariantRunsOncePerState(t *testing.T) {
	for _, par := range []int{1, 4} {
		var calls atomic.Int64
		stats, err := Explore(context.Background(),
			counterState{remaining: []int{2, 2}},
			WithParallelism(par),
			WithInvariant(func(State) error {
				calls.Add(1)
				return nil
			}))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if got := calls.Load(); got != int64(stats.States) {
			t.Errorf("parallelism %d: invariant ran %d times for %d states", par, got, stats.States)
		}
	}
}

// TestExploreParallelFirstViolationSchedule checks that a violation found
// by any worker carries a schedule that replays to the violating state.
func TestExploreParallelFirstViolationSchedule(t *testing.T) {
	_, err := Explore(context.Background(),
		counterState{remaining: []int{3, 3}},
		WithParallelism(4),
		WithInvariant(func(s State) error {
			if s.(counterState).total >= 4 {
				return errors.New("counter reached 4")
			}
			return nil
		}))
	var verr *ViolationError
	if !errors.As(err, &verr) || verr.Kind != "invariant" {
		t.Fatalf("err = %v, want invariant violation", err)
	}
	if len(verr.Schedule) != 4 {
		t.Errorf("schedule %v, want 4 steps to the violating state", verr.Schedule)
	}
	// Replay: the schedule must be a valid path from the initial state.
	st := State(counterState{remaining: []int{3, 3}})
	for i, step := range verr.Schedule {
		found := false
		for _, succ := range st.Successors() {
			if succ.Thread == step.Thread && succ.Label == step.Label {
				st, found = succ.Next, true
				break
			}
		}
		if !found {
			t.Fatalf("schedule step %d (%s) does not match any successor", i, step)
		}
	}
	if st.(counterState).total != 4 {
		t.Errorf("replayed schedule ends at total %d, want 4", st.(counterState).total)
	}
}

// TestVisitedSetClaimOnce stress-tests the sharded visited set under the
// race detector: many goroutines claiming overlapping key sets must
// produce exactly one winner per key.
func TestVisitedSetClaimOnce(t *testing.T) {
	const (
		goroutines = 8
		keys       = 10_000
	)
	var v visitedSet
	v.init()
	var won atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the keys from a different offset so
			// claims collide at staggered times.
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("state-%d", (i+g*keys/goroutines)%keys)
				if v.claim(k) {
					won.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := won.Load(); got != keys {
		t.Errorf("%d successful claims for %d distinct keys", got, keys)
	}
}

// TestVisitedSetShardSpread sanity-checks that the shard hash does not
// degenerate: sequential keys must land in more than one shard.
func TestVisitedSetShardSpread(t *testing.T) {
	var v visitedSet
	v.init()
	used := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		used[v.shardOf(fmt.Sprintf("state-%d", i))] = true
	}
	if len(used) < visitedShards/2 {
		t.Errorf("1000 keys hit only %d of %d shards", len(used), visitedShards)
	}
}
