package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/jobs"
	"calgo/internal/monitor"
)

func digest(ins []Input) string {
	h := sha256.New()
	for _, in := range ins {
		fmt.Fprintf(h, "%s %s %s %d %v %d\n", in.Name, in.Spec, in.Object, in.Threads, in.Sat, in.DefectEvent)
		h.Write([]byte(in.Text))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func scheduleInputs(t *testing.T, seed int64) []Input {
	t.Helper()
	sched, err := serviceSchedule(rand.New(rand.NewSource(seed)), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var ins []Input
	for _, a := range sched {
		ins = append(ins, a.in)
	}
	return ins
}

// TestGeneratorsPinned pins the generated inputs byte for byte per seed,
// so a run's inputs depend on its seed alone.
func TestGeneratorsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func() []Input
		want string
	}{
		{"batch/1", func() []Input { return batchCorpus(1) }, "fce38e7577e237b4"},
		{"batch/7", func() []Input { return batchCorpus(7) }, "170f657414553599"},
		{"service/1", func() []Input { return scheduleInputs(t, 1) }, "fad798f9de305c59"},
		{"stream/1", func() []Input {
			r := rand.New(rand.NewSource(1))
			return []Input{newStreamInput(r, "queue", 20_000, true).in, newStreamInput(r, "pqueue", 5_000, false).in}
		}, "100bf3581a0e4ded"},
	} {
		first, second := digest(tc.gen()), digest(tc.gen())
		if first != second {
			t.Errorf("%s: two generations differ: %s vs %s", tc.name, first, second)
		}
		if first != tc.want {
			t.Errorf("%s: digest %s, pinned %s", tc.name, first, tc.want)
		}
	}
}

// TestLabelsAgreeWithDFS cross-checks the known answers against the
// exhaustive DFS on small instances of every generator.
func TestLabelsAgreeWithDFS(t *testing.T) {
	kinds := []string{"queue", "stack", "set", "pqueue"}
	for s := int64(0); s < 240; s++ {
		r := rand.New(rand.NewSource(s))
		var in Input
		switch s % 7 {
		case 0, 1, 2, 3:
			ops := 10 + r.Intn(40)
			sh := shape{kind: kinds[s%4], ops: ops, threads: 2 + r.Intn(3), dupAt: -1, defectAt: -1, orderly: r.Intn(2) == 0}
			if r.Intn(2) == 0 {
				sh.dupAt = r.Intn(ops / 2)
			}
			if r.Intn(3) == 0 {
				sh.defectAt = r.Intn(ops)
			}
			in = collectionInput(r, "small", sh)
		case 4:
			in = genExchanger(r, "small", 1+r.Intn(8), r.Intn(3) == 0)
		case 5:
			in = genSyncQueue(r, "small", 1+r.Intn(8), r.Intn(3) == 0)
		default:
			in = genSnapshot(r, "small", r.Intn(3) == 0)
		}
		h, err := history.Parse(in.Text)
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		sp, err := jobs.SpecByName(in.Spec, in.Object, in.Threads)
		if err != nil {
			t.Fatal(err)
		}
		res, err := check.CAL(context.Background(), h, sp)
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		if res.Verdict == check.Unknown || res.OK != in.Sat {
			t.Errorf("seed %d (%s): DFS says %s, constructed Sat=%v\n%s", s, in.Spec, res.Verdict, in.Sat, in.Text)
		}
		if !in.Sat && in.DefectEvent < 0 {
			t.Errorf("seed %d (%s): unsat input without a defect event", s, in.Spec)
		}
	}
}

// TestBatchRoutes checks the corpus's size guards: long histories and
// stack histories are decided by the monitor, ambiguous ones leave its
// fragment (unless the monitor already sees the planted never-inserted
// value) and the DFS decides them within its state budget, and every
// answer matches the known one.
func TestBatchRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("checks a whole corpus")
	}
	checkers, err := newBatchCheckers()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range batchCorpus(3) {
		h, err := history.Parse(in.Text)
		if err != nil {
			t.Fatal(err)
		}
		sp := checkers[in.Spec].Spec()
		m := monitor.Check(h, sp)
		ambiguous := strings.HasPrefix(in.Name, "ambiguous")
		if ambiguous {
			if m.Outcome != monitor.Ineligible && !(m.Outcome == monitor.Violation && !in.Sat) {
				t.Errorf("%s: monitor outcome %s, want ineligible", in.Name, m.Outcome)
			}
			res, err := checkers[in.Spec].Check(context.Background(), h)
			if err != nil || res.Verdict == check.Unknown || res.OK != in.Sat {
				t.Errorf("%s: DFS verdict %s (err %v), constructed Sat=%v", in.Name, res.Verdict, err, in.Sat)
			}
			continue
		}
		if decided := m.Outcome == monitor.OK || m.Outcome == monitor.Violation; !decided || (m.Outcome == monitor.OK) != in.Sat {
			t.Errorf("%s (%s, %d events): monitor outcome %s, constructed Sat=%v", in.Name, in.Spec, in.Events, m.Outcome, in.Sat)
		}
	}
}

// TestStreamDefectEvent checks that the planted stream defect is reported
// at exactly its event, and that the priority-queue stream ends Sat.
func TestStreamDefectEvent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, si := range []streamInput{newStreamInput(r, "queue", 20_000, true), newStreamInput(r, "pqueue", 5_000, false)} {
		if _, err := engineNSPerEvent(si); err != nil {
			t.Error(err)
		}
	}
	// The same check fails on a defect reported one event late.
	si := newStreamInput(r, "queue", 2_000, true)
	si.in.DefectEvent++
	if _, err := engineNSPerEvent(si); err == nil {
		t.Error("a shifted defect event went unnoticed")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	if got := percentile(xs, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
}
