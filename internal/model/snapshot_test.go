package model_test

import (
	"context"
	"sync"
	"testing"

	"calgo/internal/model"
	"calgo/internal/sched"
	"calgo/internal/spec"
)

func exploreIS(t *testing.T, values []int64, maxStates int) sched.Stats {
	t.Helper()
	init := model.NewSnapshot(model.ISConfig{Values: values})
	stats, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(model.VerifyCAL(spec.NewSnapshot(init.Object(), len(values)), init.Project, true)))
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	_ = maxStates
	return stats
}

func TestSnapshotModelTwoParticipants(t *testing.T) {
	stats := exploreIS(t, []int64{10, 20}, 1_000_000)
	t.Logf("n=2: %+v", stats)
	pinStats(t, stats, 277, 452, 14)
}

func TestSnapshotModelThreeParticipants(t *testing.T) {
	stats := exploreIS(t, []int64{10, 20, 30}, 4_000_000)
	t.Logf("n=3: %+v", stats)
	pinStats(t, stats, 66_760, 169_681, 666)
}

// TestSnapshotModelBlockSizes: across all interleavings of n=3, every
// block structure the theory allows actually occurs: three singleton
// blocks, a pair plus a singleton (in both orders), and one triple.
func TestSnapshotModelBlockSizes(t *testing.T) {
	init := model.NewSnapshot(model.ISConfig{Values: []int64{1, 2, 3}})
	var mu sync.Mutex
	shapes := map[string]int{}
	_, err := sched.Explore(context.Background(),
		init,
		sched.WithTerminal(func(st sched.State) error {
			s := st.(*model.ISState)
			blocks := s.Project(s.AuxTrace())
			key := ""
			for _, el := range blocks {
				key += string(rune('0' + el.Size()))
			}
			mu.Lock()
			shapes[key]++
			mu.Unlock()
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"111", "12", "21", "3"} {
		if shapes[want] == 0 {
			t.Errorf("block shape %q never occurred (got %v)", want, shapes)
		}
	}
	t.Logf("block shapes: %v", shapes)
	if shapes["111"] != 342 || shapes["12"] != 144 || shapes["21"] != 144 || shapes["3"] != 36 || len(shapes) != 4 {
		t.Errorf("block shapes %v, want map[111:342 12:144 21:144 3:36]", shapes)
	}
}

func TestSnapshotModelAccessors(t *testing.T) {
	s := model.NewSnapshot(model.ISConfig{})
	if s.Object() != "IS" || !s.Done() {
		t.Error("defaults wrong")
	}
}
