package model_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"calgo/internal/model"

	"calgo/internal/rg"
	"calgo/internal/sched"
	"calgo/internal/spec"
	"calgo/internal/trace"
)

// explore runs the full verification battery over a configuration:
// Figure 1's proof-outline assertions and invariant J on every state,
// Figure 4's rely/guarantee justification on every transition, and the CAL
// obligations (Definition 5 + 6) on every terminal state.
func explore(t *testing.T, cfg model.ExchangerConfig) sched.Stats {
	t.Helper()
	init := model.NewExchanger(cfg)
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithInvariant(func(st sched.State) error {
			if err := model.InvariantJ(st); err != nil {
				return err
			}
			return model.ProofOutline(st)
		}),
		sched.WithTransition(rg.Hook(true)),
		sched.WithTerminal(model.VerifyCAL(spec.NewExchanger(init.Object()), nil, true)))
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	return stats
}

// pinStats fails the test unless an exploration reached exactly the
// given counts. Each model test pins the counts the explorer has always
// reported for its configuration, so a state key that merged two states
// or split one changes them and fails here.
func pinStats(t *testing.T, got sched.Stats, states, transitions, terminals int) {
	t.Helper()
	if got.States != states || got.Transitions != transitions || got.Terminals != terminals {
		t.Errorf("explored %d states / %d transitions / %d terminals, want %d / %d / %d",
			got.States, got.Transitions, got.Terminals, states, transitions, terminals)
	}
}

func TestExploreTwoThreads(t *testing.T) {
	stats := explore(t, model.ExchangerConfig{Programs: [][]int64{{3}, {4}}})
	t.Logf("2 threads x 1 op: %+v", stats)
	pinStats(t, stats, 137, 180, 18)
}

func TestExploreFig3Program(t *testing.T) {
	// The paper's program P: exchange(3) || exchange(4) || exchange(7).
	stats := explore(t, model.ExchangerConfig{Programs: [][]int64{{3}, {4}, {7}}})
	t.Logf("Fig 3 program: %+v", stats)
	pinStats(t, stats, 12_223, 20_424, 1_446)
}

func TestExploreRepeatedOps(t *testing.T) {
	stats := explore(t, model.ExchangerConfig{Programs: [][]int64{{1, 2}, {3, 4}}})
	t.Logf("2 threads x 2 ops: %+v", stats)
	pinStats(t, stats, 6_569, 8_844, 742)
}

// TestExchangerModelFourThreads is the deepest exploration in the suite
// (2.5M states); skipped in -short mode.
func TestExchangerModelFourThreads(t *testing.T) {
	if testing.Short() {
		t.Skip("2.5M-state exploration skipped in -short mode")
	}
	init := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{1}, {2}, {3}, {4}}})
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
		sched.WithMaxStates(3_000_000))
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	t.Logf("4 threads x 1 op: %+v", stats)
	pinStats(t, stats, 2_556_497, 4_812_976, 277_656)
}

func TestExploreSingleThread(t *testing.T) {
	// A lone thread must always fail its exchanges.
	init := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{5, 6}}})
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithInvariant(model.ProofOutline),
		sched.WithTransition(rg.Hook(true)),
		sched.WithTerminal(func(st sched.State) error {
			s := st.(*model.ExchangerState)
			for _, el := range s.Trace {
				if el.Size() != 1 {
					return errors.New("lone thread logged a swap")
				}
			}
			return model.VerifyCAL(spec.NewExchanger("E"), nil, true)(st)
		}))
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	pinStats(t, stats, 12, 11, 1)
}

// TestExploreFindsCanonicalOutcomes checks that across all interleavings
// of the Figure 3 program both outcome classes occur: some execution pairs
// two threads (the third fails), and some execution fails all three.
func TestExploreFindsCanonicalOutcomes(t *testing.T) {
	init := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{3}, {4}, {7}}})
	var swaps, allFail atomic.Int64
	_, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(func(st sched.State) error {
			s := st.(*model.ExchangerState)
			hasSwap := false
			for _, el := range s.Trace {
				if el.Size() == 2 {
					hasSwap = true
				}
			}
			if hasSwap {
				swaps.Add(1)
			} else {
				allFail.Add(1)
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if swaps.Load() == 0 {
		t.Error("no execution produced a successful swap")
	}
	if allFail.Load() == 0 {
		t.Error("no execution failed all exchanges")
	}
	t.Logf("terminal outcomes: %d with swap, %d all-fail", swaps.Load(), allFail.Load())
	if swaps.Load() != 528 || allFail.Load() != 918 {
		t.Errorf("terminal outcomes %d with swap / %d all-fail, want 528 / 918", swaps.Load(), allFail.Load())
	}
}

// TestBugsAreCaught demonstrates the soundness of the verification battery:
// each injected defect is detected by at least one check.
func TestBugsAreCaught(t *testing.T) {
	tests := []struct {
		bug string
		// which hooks to enable; the named bug must trip one of them
		wantKind []string
	}{
		// PASS without the auxiliary assignment matches no Figure 4
		// action, so the rely/guarantee hook fires before the outline
		// assertions get a chance.
		{"drop-pass-log", []string{"transition", "invariant", "terminal"}},
		{"wrong-swap-values", []string{"invariant", "transition", "terminal"}},
		{"late-swap-log", []string{"transition"}},
	}
	for _, tt := range tests {
		t.Run(tt.bug, func(t *testing.T) {
			init := model.NewExchanger(model.ExchangerConfig{
				Programs: [][]int64{{3}, {4}},
				Bug:      tt.bug,
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
				sched.WithTerminal(model.VerifyCAL(spec.NewExchanger("E"), nil, true)))
			var verr *sched.ViolationError
			if !errors.As(err, &verr) {
				t.Fatalf("bug %q escaped verification (err = %v)", tt.bug, err)
			}
			okKind := false
			for _, k := range tt.wantKind {
				if verr.Kind == k {
					okKind = true
				}
			}
			if !okKind {
				t.Errorf("bug %q caught as %q, want one of %v: %v", tt.bug, verr.Kind, tt.wantKind, verr)
			}
			t.Logf("caught as %s: %v", verr.Kind, verr.Err)
		})
	}
}

func TestExchangerStateAccessors(t *testing.T) {
	init := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{1}}})
	if init.Object() != "E" {
		t.Errorf("default object = %s", init.Object())
	}
	if init.Done() {
		t.Error("initial state cannot be done")
	}
	if len(init.History()) != 0 || len(init.AuxTrace()) != 0 {
		t.Error("initial state must have empty history and trace")
	}
	custom := model.NewExchanger(model.ExchangerConfig{Object: "X", Programs: nil})
	if custom.Object() != "X" || !custom.Done() {
		t.Error("empty program should be immediately done")
	}
}

func TestKeyDistinguishesStates(t *testing.T) {
	init := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{3}, {4}}})
	succs := init.Successors()
	if len(succs) != 2 {
		t.Fatalf("initial successors = %d, want 2", len(succs))
	}
	if succs[0].Next.Key() == succs[1].Next.Key() {
		t.Error("distinct successor states share a key")
	}
	if succs[0].Next.Key() == init.Key() {
		t.Error("stepping must change the key")
	}
}

func TestVerifyCALWrongStateType(t *testing.T) {
	hook := model.VerifyCAL(spec.NewExchanger("E"), nil, false)
	if err := hook(fakeState{}); err == nil {
		t.Error("model.VerifyCAL must reject foreign state types")
	}
	if err := model.InvariantJ(fakeState{}); err == nil {
		t.Error("model.InvariantJ must reject foreign state types")
	}
	if err := model.ProofOutline(fakeState{}); err == nil {
		t.Error("model.ProofOutline must reject foreign state types")
	}
}

type fakeState struct{}

func (fakeState) Key() string              { return "" }
func (fakeState) Successors() []sched.Succ { return nil }
func (fakeState) Done() bool               { return true }

// TestProjectHookApplied checks the project parameter of model.VerifyCAL.
func TestProjectHookApplied(t *testing.T) {
	init := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{3}}})
	called := false
	hook := model.VerifyCAL(spec.NewExchanger("E"), func(tr trace.Trace) trace.Trace {
		called = true
		return tr
	}, false)
	// Drive to a terminal state by always stepping thread 0.
	var st sched.State = init
	for {
		succs := st.Successors()
		if len(succs) == 0 {
			break
		}
		st = succs[0].Next
	}
	if err := hook(st); err != nil {
		t.Fatalf("terminal hook: %v", err)
	}
	if !called {
		t.Error("project function not applied")
	}
}
