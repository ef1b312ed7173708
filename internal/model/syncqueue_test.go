package model_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"calgo/internal/model"
	"calgo/internal/sched"
	"calgo/internal/spec"
)

func exploreSQ(t *testing.T, cfg model.SQConfig) sched.Stats {
	t.Helper()
	init := model.NewSyncQueue(cfg)
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(model.VerifyCAL(spec.NewSyncQueue(init.Object()), nil, true)))
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	return stats
}

func TestSyncQueueModelPutTake(t *testing.T) {
	stats := exploreSQ(t, model.SQConfig{Programs: [][]model.SQOp{
		{model.Put(42)},
		{model.Take()},
	}})
	t.Logf("put||take: %+v", stats)
	pinStats(t, stats, 137, 180, 18)
}

func TestSyncQueueModelThreeWay(t *testing.T) {
	stats := exploreSQ(t, model.SQConfig{Programs: [][]model.SQOp{
		{model.Put(1)},
		{model.Put(2)},
		{model.Take()},
	}})
	t.Logf("put||put||take: %+v", stats)
	pinStats(t, stats, 11_925, 19_504, 1_462)
}

func TestSyncQueueModelRepeated(t *testing.T) {
	stats := exploreSQ(t, model.SQConfig{Programs: [][]model.SQOp{
		{model.Put(1), model.Put(2)},
		{model.Take(), model.Take()},
	}})
	t.Logf("2x(put)||2x(take): %+v", stats)
	pinStats(t, stats, 6_377, 8_522, 742)
}

// TestSyncQueueModelOutcomes: both hand-off and all-fail executions occur,
// and a put can never succeed alone.
func TestSyncQueueModelOutcomes(t *testing.T) {
	init := model.NewSyncQueue(model.SQConfig{Programs: [][]model.SQOp{
		{model.Put(42)},
		{model.Take()},
	}})
	var handOffs, allFail atomic.Int64
	_, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(func(st sched.State) error {
			s := st.(*model.SQState)
			saw := false
			for _, el := range s.Trace {
				if el.Size() == 2 {
					saw = true
				}
			}
			if saw {
				handOffs.Add(1)
			} else {
				allFail.Add(1)
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if handOffs.Load() == 0 {
		t.Error("no execution performed a hand-off")
	}
	if allFail.Load() == 0 {
		t.Error("no execution failed both attempts")
	}
	t.Logf("terminals: %d hand-off, %d all-fail", handOffs.Load(), allFail.Load())
	if handOffs.Load() != 8 || allFail.Load() != 10 {
		t.Errorf("terminals %d hand-off / %d all-fail, want 8 / 10", handOffs.Load(), allFail.Load())
	}
}

// TestSyncQueueModelSameKindNeverPair: two puts can never hand off to each
// other (the asymmetric protocol's kind check).
func TestSyncQueueModelSameKindNeverPair(t *testing.T) {
	init := model.NewSyncQueue(model.SQConfig{Programs: [][]model.SQOp{
		{model.Put(1)},
		{model.Put(2)},
	}})
	_, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(func(st sched.State) error {
			s := st.(*model.SQState)
			for _, el := range s.Trace {
				if el.Size() == 2 {
					return fmt.Errorf("two puts paired: %s", el)
				}
			}
			return model.VerifyCAL(spec.NewSyncQueue("SQ"), nil, true)(st)
		}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestSyncQueueModelAccessors(t *testing.T) {
	init := model.NewSyncQueue(model.SQConfig{})
	if init.Object() != "SQ" || !init.Done() {
		t.Error("defaults wrong")
	}
	two := model.NewSyncQueue(model.SQConfig{Object: "X", Programs: [][]model.SQOp{{model.Put(1)}}})
	if two.Object() != "X" || two.Done() {
		t.Error("custom config wrong")
	}
	if len(two.Successors()) != 1 {
		t.Error("single thread should have one initial step")
	}
}
