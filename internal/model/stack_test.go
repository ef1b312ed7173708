package model_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"calgo/internal/model"

	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

func exploreStack(t *testing.T, cfg model.StackConfig) sched.Stats {
	t.Helper()
	init := model.NewStack(cfg)
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(model.VerifyCAL(spec.NewCentralStack(init.Object()), nil, true)))
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	return stats
}

func TestStackModelTwoPushers(t *testing.T) {
	stats := exploreStack(t, model.StackConfig{Programs: [][]model.StackOp{
		{model.Push(1)},
		{model.Push(2)},
	}})
	t.Logf("2 pushers: %+v", stats)
	pinStats(t, stats, 119, 138, 26)
}

func TestStackModelPushPop(t *testing.T) {
	stats := exploreStack(t, model.StackConfig{Programs: [][]model.StackOp{
		{model.Push(1), model.Pop()},
		{model.Push(2), model.Pop()},
	}})
	t.Logf("push+pop x2: %+v", stats)
	pinStats(t, stats, 4_091, 5_134, 670)
}

func TestStackModelPopEmpty(t *testing.T) {
	stats := exploreStack(t, model.StackConfig{Programs: [][]model.StackOp{
		{model.Pop()},
		{model.Push(5)},
		{model.Pop()},
	}})
	t.Logf("racing pops over one push: %+v", stats)
	pinStats(t, stats, 1_853, 2_558, 342)
}

// TestStackModelContentionObserved checks that the model actually produces
// contended (failed) one-shot operations in some interleaving — the
// behaviour that motivates the elimination layer.
func TestStackModelContentionObserved(t *testing.T) {
	init := model.NewStack(model.StackConfig{Programs: [][]model.StackOp{
		{model.Push(1)},
		{model.Push(2)},
	}})
	var misses atomic.Int64
	_, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(func(st sched.State) error {
			s := st.(*model.StackState)
			for _, el := range s.Trace {
				op := el.Ops[0]
				if op.Method == spec.MethodPush && !op.Ret.B {
					misses.Add(1)
				}
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if misses.Load() == 0 {
		t.Error("no interleaving produced a contended push")
	}
	t.Logf("contended pushes across terminals: %d", misses.Load())
	if misses.Load() != 16 {
		t.Errorf("%d contended pushes across terminals, want 16", misses.Load())
	}
}

func exploreES(t *testing.T, cfg model.ESConfig, maxStates int) sched.Stats {
	t.Helper()
	init := model.NewElimStack(cfg)
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(model.VerifyCAL(spec.NewStack(init.Object()), init.Project, true)),
		sched.WithDeadlockAllowed(),
		sched.WithMaxStates(maxStates))
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	return stats
}

func TestElimStackModelPushPopPair(t *testing.T) {
	stats := exploreES(t, model.ESConfig{
		Slots:   1,
		Retries: 2,
		Programs: [][]model.StackOp{
			{model.Push(7)},
			{model.Pop()},
		},
	}, 2_000_000)
	t.Logf("push||pop, K=1, R=2: %+v", stats)
	pinStats(t, stats, 167, 245, 17)
}

func TestElimStackModelTwoPushersOnePopper(t *testing.T) {
	stats := exploreES(t, model.ESConfig{
		Slots:   1,
		Retries: 2,
		Programs: [][]model.StackOp{
			{model.Push(1)},
			{model.Push(2)},
			{model.Pop()},
		},
	}, 4_000_000)
	t.Logf("2 push || pop, K=1, R=2: %+v", stats)
	pinStats(t, stats, 61_851, 102_532, 7_096)
}

func TestElimStackModelTwoSlots(t *testing.T) {
	stats := exploreES(t, model.ESConfig{
		Slots:   2,
		Retries: 2,
		Programs: [][]model.StackOp{
			{model.Push(7)},
			{model.Pop()},
		},
	}, 2_000_000)
	t.Logf("push||pop, K=2, R=2: %+v", stats)
	pinStats(t, stats, 355, 541, 37)
}

// TestElimStackEliminationObserved verifies that some interleaving really
// eliminates a push/pop pair through the exchanger (the derived trace
// contains operations although the central stack logged no successes).
func TestElimStackEliminationObserved(t *testing.T) {
	// A lone pusher can never fail its central CAS (nothing else mutates
	// top before its push), so elimination needs a second pusher to
	// create contention: t1 reads top, t2 pushes, t1's CAS misses, t1
	// eliminates against the popper waiting in the array.
	init := model.NewElimStack(model.ESConfig{
		Slots:   1,
		Retries: 2,
		Programs: [][]model.StackOp{
			{model.Push(7)},
			{model.Push(8)},
			{model.Pop()},
		},
	})
	var eliminations atomic.Int64
	_, err := sched.Explore(context.Background(),
		init,
		sched.WithDeadlockAllowed(),
		sched.WithTerminal(func(st sched.State) error {
			s := st.(*model.ESState)
			for _, el := range s.Trace {
				if el.Size() == 2 {
					a, b := el.Ops[0], el.Ops[1]
					sentinel := int64(1 << 60)
					if (a.Arg.N == sentinel) != (b.Arg.N == sentinel) {
						eliminations.Add(1)
					}
				}
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if eliminations.Load() == 0 {
		t.Error("no interleaving eliminated the pair through the exchanger")
	}
	t.Logf("eliminating terminals: %d", eliminations.Load())
	if eliminations.Load() != 576 {
		t.Errorf("%d eliminating terminals, want 576", eliminations.Load())
	}
}

// TestElimStackBoundedRetryHalts checks that the retry bound actually cuts
// some executions off (halted, non-Done terminals) and that those
// executions still pass the CAL obligations via completion-by-removal.
func TestElimStackBoundedRetryHalts(t *testing.T) {
	init := model.NewElimStack(model.ESConfig{
		Slots:   1,
		Retries: 1,
		Programs: [][]model.StackOp{
			{model.Pop()}, // lone popper on an empty stack must halt
		},
	})
	var halted atomic.Int64
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithDeadlockAllowed(),
		sched.WithTerminal(func(st sched.State) error {
			s := st.(*model.ESState)
			if !s.Done() {
				halted.Add(1)
			}
			return model.VerifyCAL(spec.NewStack(s.Object()), s.Project, true)(st)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if halted.Load() == 0 {
		t.Error("lone popper should halt at the retry bound")
	}
	t.Logf("halted terminals: %d of %d", halted.Load(), stats.Terminals)
	pinStats(t, stats, 6, 5, 1)
}

func TestStackModelDefaults(t *testing.T) {
	s := model.NewStack(model.StackConfig{})
	if s.Object() != "S" || !s.Done() {
		t.Error("empty stack model defaults wrong")
	}
	es := model.NewElimStack(model.ESConfig{})
	if es.Object() != "ES" || !es.Done() {
		t.Error("empty ES model defaults wrong")
	}
	if len(es.History()) != 0 || len(es.AuxTrace()) != 0 {
		t.Error("initial ES model not empty")
	}
}

// TestESProjectShapes unit-tests the projection on crafted raw traces.
func TestESProjectShapes(t *testing.T) {
	es := model.NewElimStack(model.ESConfig{Programs: nil, Sentinel: 99})
	raw := trace.Trace{
		spec.PushElement("ES.S", 1, 5, true),
		spec.PushElement("ES.S", 2, 6, false),
		spec.PopElement("ES.S", 3, true, 5),
		spec.PopElement("ES.S", 3, false, 0),
		spec.SwapElement("ES.AR.E[0]", 4, 8, 5, 99),
		spec.SwapElement("ES.AR.E[0]", 6, 99, 7, 99),
		spec.FailElement("ES.AR.E[0]", 8, 3),
	}
	got := es.Project(raw)
	want := trace.Trace{
		spec.PushElement("ES", 1, 5, true),
		spec.PopElement("ES", 3, true, 5),
		spec.PushElement("ES", 4, 8, true),
		spec.PopElement("ES", 5, true, 8),
	}
	if !got.Equal(want) {
		t.Errorf("Project = %s\nwant %s", got, want)
	}
}

func TestExploreMaxStates(t *testing.T) {
	init := model.NewElimStack(model.ESConfig{
		Slots:   2,
		Retries: 3,
		Programs: [][]model.StackOp{
			{model.Push(1)}, {model.Pop()}, {model.Push(2)},
		},
	})
	_, err := sched.Explore(context.Background(),
		init,
		sched.WithMaxStates(100),
		sched.WithDeadlockAllowed())
	if !errors.Is(err, sched.ErrMaxStates) {
		t.Errorf("err = %v, want ErrMaxStates", err)
	}
}
