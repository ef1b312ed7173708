package rg_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"calgo/internal/history"
	"calgo/internal/model"
	"calgo/internal/rg"
	"calgo/internal/sched"
)

// walk visits every transition of the model's full state graph. The
// explorer calls visit from several workers at once, so visit must be
// safe for concurrent use; its first error fails the test.
func walk(t *testing.T, cfg model.ExchangerConfig, visit func(pre, post *model.ExchangerState, s sched.Succ) error) {
	t.Helper()
	init := model.NewExchanger(cfg)
	_, err := sched.Explore(context.Background(),
		init,
		sched.WithTransition(func(from sched.State, s sched.Succ) error {
			return visit(from.(*model.ExchangerState), s.Next.(*model.ExchangerState), s)
		}))
	if err != nil {
		t.Fatal(err)
	}
}

// TestJustifyMatchesLabels checks on the full graph of the Figure 3
// program that every transition is justified and that shape-matched action
// names coincide with the model's own labels for the named actions.
func TestJustifyMatchesLabels(t *testing.T) {
	named := map[string]bool{
		rg.ActionInit: true, rg.ActionClean: true, rg.ActionPass: true,
		rg.ActionXchg: true, rg.ActionFail: true,
	}
	var mu sync.Mutex
	seen := map[string]int{}
	walk(t, model.ExchangerConfig{Programs: [][]int64{{3}, {4}, {7}}},
		func(pre, post *model.ExchangerState, s sched.Succ) error {
			action, err := rg.Justify(pre, post, history.ThreadID(s.Thread+1))
			if err != nil {
				return fmt.Errorf("unjustified transition %q: %v", s.Label, err)
			}
			mu.Lock()
			seen[action]++
			mu.Unlock()
			if named[s.Label] && action != s.Label {
				return fmt.Errorf("label %q justified as %q", s.Label, action)
			}
			return nil
		})
	// Every Figure 4 action must actually occur somewhere in the graph.
	for a := range named {
		if seen[a] == 0 {
			t.Errorf("action %s never exercised", a)
		}
	}
	t.Logf("action counts: %v", seen)
}

// TestJustifyRejectsWrongThread: an XCHG justified for the stepping thread
// must not be attributable to its partner (the guarantee is per-thread).
func TestJustifyRejectsWrongThread(t *testing.T) {
	var checked atomic.Int64
	walk(t, model.ExchangerConfig{Programs: [][]int64{{3}, {4}}},
		func(pre, post *model.ExchangerState, s sched.Succ) error {
			if s.Label != rg.ActionXchg {
				return nil
			}
			checked.Add(1)
			other := history.ThreadID((s.Thread+1)%2 + 1)
			if action, err := rg.Justify(pre, post, other); err == nil {
				return fmt.Errorf("XCHG of t%d wrongly justified for %s as %s", s.Thread+1, other, action)
			}
			return nil
		})
	if checked.Load() == 0 {
		t.Error("no XCHG transitions found")
	}
}

// TestJustifyRejectsWrongThreadPassInit: INIT and PASS are also
// thread-attributed.
func TestJustifyRejectsWrongThreadPassInit(t *testing.T) {
	walk(t, model.ExchangerConfig{Programs: [][]int64{{3}, {4}}},
		func(pre, post *model.ExchangerState, s sched.Succ) error {
			if s.Label != rg.ActionInit && s.Label != rg.ActionPass {
				return nil
			}
			other := history.ThreadID((s.Thread+1)%2 + 1)
			action, err := rg.Justify(pre, post, other)
			if err == nil && action != rg.ActionTau && action != rg.ActionAlloc {
				return fmt.Errorf("%s of t%d justified for %s as %s", s.Label, s.Thread+1, other, action)
			}
			return nil
		})
}

func TestHookTypeErrors(t *testing.T) {
	hook := rg.Hook(true)
	if err := hook(badState{}, sched.Succ{Next: badState{}}); err == nil {
		t.Error("hook must reject foreign state types")
	}
	pre := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{1}}})
	if err := hook(pre, sched.Succ{Next: badState{}}); err == nil || !strings.Contains(err.Error(), "successor") {
		t.Errorf("hook must reject foreign successors: %v", err)
	}
}

type badState struct{}

func (badState) Key() string              { return "" }
func (badState) Successors() []sched.Succ { return nil }
func (badState) Done() bool               { return true }

// TestLateLogBreaksJustification: the "late-swap-log" defect makes the
// hole CAS unjustifiable — the exact obligation the XCHG action encodes.
func TestLateLogBreaksJustification(t *testing.T) {
	init := model.NewExchanger(model.ExchangerConfig{
		Programs: [][]int64{{3}, {4}},
		Bug:      "late-swap-log",
	})
	_, err := sched.Explore(context.Background(), init, sched.WithTransition(rg.Hook(false)))
	if err == nil {
		t.Fatal("late swap logging must break rely/guarantee justification")
	}
	if !strings.Contains(err.Error(), "matches no action") {
		t.Errorf("unexpected error: %v", err)
	}
}
