package model_test

import (
	"context"
	"sync/atomic"
	"testing"

	"calgo/internal/model"
	"calgo/internal/sched"
	"calgo/internal/spec"
)

func exploreDS(t *testing.T, cfg model.DSConfig, maxStates int) sched.Stats {
	t.Helper()
	init := model.NewDualStack(cfg)
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(model.VerifyCAL(spec.NewDualStack(init.Object()), nil, true)),
		sched.WithDeadlockAllowed(),
		sched.WithMaxStates(maxStates))
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	return stats
}

func TestDualStackModelPushPop(t *testing.T) {
	stats := exploreDS(t, model.DSConfig{Programs: [][]model.StackOp{
		{model.Push(7)},
		{model.Pop()},
	}}, 2_000_000)
	t.Logf("push||pop: %+v", stats)
	pinStats(t, stats, 278, 352, 46)
}

func TestDualStackModelTwoPushersOnePopper(t *testing.T) {
	stats := exploreDS(t, model.DSConfig{Programs: [][]model.StackOp{
		{model.Push(1)},
		{model.Push(2)},
		{model.Pop()},
	}}, 4_000_000)
	t.Logf("2 push || pop: %+v", stats)
	pinStats(t, stats, 50_502, 81_925, 6_746)
}

func TestDualStackModelTwoPoppers(t *testing.T) {
	stats := exploreDS(t, model.DSConfig{Programs: [][]model.StackOp{
		{model.Pop()},
		{model.Pop()},
		{model.Push(9)},
	}}, 4_000_000)
	t.Logf("2 pop || push: %+v", stats)
	pinStats(t, stats, 142_345, 221_810, 21_222)
}

func TestDualStackModelRepeatedOps(t *testing.T) {
	stats := exploreDS(t, model.DSConfig{Programs: [][]model.StackOp{
		{model.Push(1), model.Pop()},
		{model.Pop(), model.Push(2)},
	}}, 4_000_000)
	t.Logf("mixed 2x2: %+v", stats)
	pinStats(t, stats, 16_530, 21_527, 2_432)
}

// TestDualStackModelOutcomeCoverage: fulfilments, cancellations and
// ordinary pops all occur across the interleavings.
func TestDualStackModelOutcomeCoverage(t *testing.T) {
	init := model.NewDualStack(model.DSConfig{Programs: [][]model.StackOp{
		{model.Push(7)},
		{model.Pop()},
	}})
	var fulfilments, cancels, ordinary atomic.Int64
	_, err := sched.Explore(context.Background(),
		init,
		sched.WithDeadlockAllowed(),
		sched.WithTerminal(func(st sched.State) error {
			s := st.(*model.DSState)
			for _, el := range s.Trace {
				switch {
				case el.Size() == 2:
					fulfilments.Add(1)
				case el.Ops[0].Method == spec.MethodPop && !el.Ops[0].Ret.B:
					cancels.Add(1)
				case el.Ops[0].Method == spec.MethodPop:
					ordinary.Add(1)
				}
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if fulfilments.Load() == 0 {
		t.Error("no execution fulfilled a waiting pop")
	}
	if cancels.Load() == 0 {
		t.Error("no execution cancelled a reservation")
	}
	if ordinary.Load() == 0 {
		t.Error("no execution popped an ordinary data node")
	}
	t.Logf("outcomes: %d fulfilments, %d cancellations, %d ordinary pops",
		fulfilments.Load(), cancels.Load(), ordinary.Load())
	if fulfilments.Load() != 12 || cancels.Load() != 21 || ordinary.Load() != 13 {
		t.Errorf("outcomes %d / %d / %d, want 12 fulfilments / 21 cancellations / 13 ordinary pops",
			fulfilments.Load(), cancels.Load(), ordinary.Load())
	}
}

func TestDualStackModelDefaults(t *testing.T) {
	s := model.NewDualStack(model.DSConfig{})
	if s.Object() != "DS" || !s.Done() {
		t.Error("defaults wrong")
	}
	if len(s.History()) != 0 || len(s.AuxTrace()) != 0 {
		t.Error("initial state not empty")
	}
}
