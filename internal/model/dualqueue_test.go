package model_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"calgo/internal/model"
	"calgo/internal/sched"
	"calgo/internal/spec"
)

func exploreDQ(t *testing.T, cfg model.DQConfig, maxStates int) sched.Stats {
	t.Helper()
	init := model.NewDualQueue(cfg)
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(model.VerifyCAL(spec.NewDualQueue(init.Object()), nil, true)),
		sched.WithDeadlockAllowed(),
		sched.WithMaxStates(maxStates))
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	return stats
}

func TestDualQueueModelEnqDeq(t *testing.T) {
	stats := exploreDQ(t, model.DQConfig{Programs: [][]model.QOp{
		{model.Enq(7)},
		{model.Deq()},
	}}, 2_000_000)
	t.Logf("enq||deq: %+v", stats)
	pinStats(t, stats, 481, 733, 34)
}

func TestDualQueueModelTwoEnqOneDeq(t *testing.T) {
	stats := exploreDQ(t, model.DQConfig{Programs: [][]model.QOp{
		{model.Enq(1)},
		{model.Enq(2)},
		{model.Deq()},
	}}, 4_000_000)
	t.Logf("2 enq || deq: %+v", stats)
	pinStats(t, stats, 104_260, 219_005, 3_930)
}

func TestDualQueueModelTwoDeqOneEnq(t *testing.T) {
	stats := exploreDQ(t, model.DQConfig{Programs: [][]model.QOp{
		{model.Deq()},
		{model.Deq()},
		{model.Enq(9)},
	}}, 4_000_000)
	t.Logf("2 deq || enq: %+v", stats)
	pinStats(t, stats, 145_233, 308_222, 4_862)
}

func TestDualQueueModelMixedPrograms(t *testing.T) {
	stats := exploreDQ(t, model.DQConfig{Programs: [][]model.QOp{
		{model.Enq(1), model.Deq()},
		{model.Deq(), model.Enq(2)},
	}}, 4_000_000)
	t.Logf("mixed 2x2: %+v", stats)
	pinStats(t, stats, 28_086, 43_950, 1_640)
}

// TestDualQueueModelFIFOAcrossFulfilment is the FIFO-critical scenario:
// with two waiting dequeuers, fulfilments must serve the OLDEST first.
func TestDualQueueModelFIFOAcrossFulfilment(t *testing.T) {
	if testing.Short() {
		t.Skip("~1M-state exploration skipped in -short mode")
	}
	stats := exploreDQ(t, model.DQConfig{
		Retries: 2,
		Programs: [][]model.QOp{
			{model.Deq()},
			{model.Deq()},
			{model.Enq(1), model.Enq(2)},
		},
	}, 6_000_000)
	t.Logf("2 deq || enq;enq: %+v", stats)
	pinStats(t, stats, 962_997, 1_904_626, 38_300)
}

// TestDualQueueHeadKindBugCaught: the defective mode decision (by the
// head's first node rather than the tail) admits an interleaving that
// appends data behind an open reservation, breaking FIFO; the terminal
// CAL check must find it.
func TestDualQueueHeadKindBugCaught(t *testing.T) {
	init := model.NewDualQueue(model.DQConfig{
		HeadKindBug: true,
		Retries:     3,
		Programs: [][]model.QOp{
			{model.Enq(1), model.Enq(2)},
			{model.Deq(), model.Deq()},
			{model.Deq()},
		},
	})
	_, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(model.VerifyCAL(spec.NewDualQueue("DQ"), nil, true)),
		sched.WithDeadlockAllowed(),
		sched.WithMaxStates(8_000_000))
	var verr *sched.ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("head-kind bug escaped exploration (err = %v)", err)
	}
	if verr.Kind != "terminal" {
		t.Errorf("caught as %q, want terminal CAL violation", verr.Kind)
	}
	t.Logf("caught: %v", verr.Err)
	if !strings.Contains(verr.Error(), "schedule:") {
		t.Error("violation should carry the schedule")
	}
}

func TestDualQueueModelDefaults(t *testing.T) {
	q := model.NewDualQueue(model.DQConfig{})
	if q.Object() != "DQ" || !q.Done() {
		t.Error("defaults wrong")
	}
	if len(q.History()) != 0 || len(q.AuxTrace()) != 0 {
		t.Error("initial state not empty")
	}
}
