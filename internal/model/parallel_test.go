package model_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"calgo/internal/model"
	"calgo/internal/rg"
	"calgo/internal/sched"
	"calgo/internal/spec"
)

// exploreF1 runs the full F1 verification battery (exchanger, Fig. 3
// program) at the given parallelism.
func exploreF1(t *testing.T, parallelism int) sched.Stats {
	t.Helper()
	init := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{3}, {4}, {7}}})
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithInvariant(func(st sched.State) error {
			if err := model.InvariantJ(st); err != nil {
				return err
			}
			return model.ProofOutline(st)
		}),
		sched.WithTransition(rg.Hook(true)),
		sched.WithTerminal(model.VerifyCAL(spec.NewExchanger("E"), nil, true)),
		sched.WithParallelism(parallelism))
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	return stats
}

// exploreF2 runs the F2 battery (elimination stack, K=1, R=2,
// push/push/pop) at the given parallelism.
func exploreF2(t *testing.T, parallelism int) sched.Stats {
	t.Helper()
	init := model.NewElimStack(model.ESConfig{
		Slots:   1,
		Retries: 2,
		Programs: [][]model.StackOp{
			{model.Push(1)},
			{model.Push(2)},
			{model.Pop()},
		},
	})
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(model.VerifyCAL(spec.NewStack("ES"), init.Project, true)),
		sched.WithDeadlockAllowed(),
		sched.WithParallelism(parallelism))
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	return stats
}

func parallelisms() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// TestParallelEquivalenceF1 pins that the work-stealing engine reports
// the exact sequential state counts on the F1 model at every worker
// count (the numbers recorded in EXPERIMENTS.md).
func TestParallelEquivalenceF1(t *testing.T) {
	want := exploreF1(t, 1)
	if want.States != 12_223 || want.Transitions != 20_424 || want.Terminals != 1_446 {
		t.Errorf("F1 sequential stats drifted: %+v", want)
	}
	for _, par := range parallelisms()[1:] {
		got := exploreF1(t, par)
		if got.States != want.States || got.Transitions != want.Transitions || got.Terminals != want.Terminals {
			t.Errorf("parallelism %d: stats %+v, want %+v", par, got, want)
		}
	}
}

// TestParallelEquivalenceF2 is the same contract on the 61,851-state F2
// model. It also runs under -short, so the race-detector pass explores
// F2 with workers whose states share trace and history prefixes.
func TestParallelEquivalenceF2(t *testing.T) {
	want := exploreF2(t, 1)
	if want.States != 61_851 || want.Transitions != 102_532 || want.Terminals != 7_096 {
		t.Errorf("F2 sequential stats drifted: %+v", want)
	}
	for _, par := range parallelisms()[1:] {
		got := exploreF2(t, par)
		if got.States != want.States || got.Transitions != want.Transitions || got.Terminals != want.Terminals {
			t.Errorf("parallelism %d: stats %+v, want %+v", par, got, want)
		}
	}
}

// TestParallelCatchesInjectedDefects re-runs the soundness battery with a
// parallel engine: all three injected exchanger defects must still be
// reported as violations.
func TestParallelCatchesInjectedDefects(t *testing.T) {
	for _, bug := range []string{"drop-pass-log", "wrong-swap-values", "late-swap-log"} {
		t.Run(bug, func(t *testing.T) {
			init := model.NewExchanger(model.ExchangerConfig{
				Programs: [][]int64{{3}, {4}},
				Bug:      bug,
			})
			_, err := sched.Explore(context.Background(),
				init,
				sched.WithInvariant(func(st sched.State) error {
					if err := model.InvariantJ(st); err != nil {
						return err
					}
					return model.ProofOutline(st)
				}),
				sched.WithTransition(rg.Hook(false)),
				sched.WithTerminal(model.VerifyCAL(spec.NewExchanger("E"), nil, true)),
				sched.WithParallelism(4))
			var verr *sched.ViolationError
			if !errors.As(err, &verr) {
				t.Fatalf("bug %q escaped the parallel exploration (err = %v)", bug, err)
			}
		})
	}
}
