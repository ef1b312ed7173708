package stream

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/monitor"
	"calgo/internal/obs"
	"calgo/internal/spec"
)

// batchVerdict runs the batch checker over the complete history.
func batchVerdict(t *testing.T, sp spec.Spec, h history.History) check.Result {
	t.Helper()
	c, err := check.NewChecker(sp)
	if err != nil {
		t.Fatalf("NewChecker: %v", err)
	}
	res, err := c.Check(context.Background(), h)
	if err != nil {
		t.Fatalf("batch Check: %v", err)
	}
	return res
}

// streamVerdict feeds the whole history through a Stream and closes it.
func streamVerdict(t *testing.T, sp spec.Spec, h history.History, cfg Config) Verdict {
	t.Helper()
	s, err := New(sp, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.FeedAll(h); err != nil {
		t.Fatalf("FeedAll: %v", err)
	}
	return s.Close()
}

// corruptRet flips one respond event's return value, turning a valid
// execution into one the specification may reject (or, for monitors,
// one that leaves the unambiguous fragment — either way the streaming
// and batch verdicts must still agree).
func corruptRet(rng *rand.Rand, h history.History) (history.History, bool) {
	out := append(history.History(nil), h...)
	idxs := rng.Perm(len(out))
	for _, i := range idxs {
		ev := out[i]
		if ev.Kind != history.Respond {
			continue
		}
		switch ev.Ret.Kind {
		case history.KindPair:
			ev.Ret = history.Pair(ev.Ret.B, int64(1)<<40+rng.Int63n(1<<20))
		case history.KindBool:
			ev.Ret = history.Bool(!ev.Ret.B)
		default:
			continue
		}
		out[i] = ev
		return out, true
	}
	return out, false
}

// genExchanger simulates a valid exchanger execution: overlapping pairs
// swap, loners fail. The exchanger admits elements of size 2, so streams
// over it always take the windowed-DFS path.
func genExchanger(rng *rand.Rand, obj history.ObjectID, rounds int) history.History {
	var h history.History
	tid := history.ThreadID(1)
	v := int64(1)
	for i := 0; i < rounds; i++ {
		if rng.Intn(3) == 0 {
			t := tid
			tid++
			h = append(h,
				history.Inv(t, obj, spec.MethodExchange, history.Int(v)),
				history.Res(t, obj, spec.MethodExchange, history.Pair(false, v)))
			v++
			continue
		}
		t1, t2 := tid, tid+1
		tid += 2
		a, b := v, v+1
		v += 2
		h = append(h,
			history.Inv(t1, obj, spec.MethodExchange, history.Int(a)),
			history.Inv(t2, obj, spec.MethodExchange, history.Int(b)))
		if rng.Intn(2) == 0 {
			h = append(h,
				history.Res(t1, obj, spec.MethodExchange, history.Pair(true, b)),
				history.Res(t2, obj, spec.MethodExchange, history.Pair(true, a)))
		} else {
			h = append(h,
				history.Res(t2, obj, spec.MethodExchange, history.Pair(true, a)),
				history.Res(t1, obj, spec.MethodExchange, history.Pair(true, b)))
		}
	}
	return h
}

// TestStreamMatchesBatch cross-validates the streaming verdict against
// the batch checker on generated complete histories: all four monitored
// kinds (stepper fast path) plus the exchanger (DFS-only), pristine and
// with one corrupted return value. Degraded streams waive the
// comparison; everything else must agree exactly.
func TestStreamMatchesBatch(t *testing.T) {
	cases := []struct {
		name string
		sp   spec.Spec
		gen  func(seed int64, threads int) history.History
	}{
		{"queue", spec.NewQueue("q"), func(seed int64, th int) history.History {
			return monitor.GenQueue(40, th, seed, "q")
		}},
		{"stack", spec.NewStack("s"), func(seed int64, th int) history.History {
			return monitor.GenStack(40, th, seed, "s")
		}},
		{"set", spec.NewSet("st"), func(seed int64, th int) history.History {
			return monitor.GenSet(40, th, seed, "st")
		}},
		{"pqueue", spec.NewPQueue("pq"), func(seed int64, th int) history.History {
			return monitor.GenPQueue(40, th, seed, "pq")
		}},
		{"exchanger", spec.NewExchanger("ex"), func(seed int64, th int) history.History {
			return genExchanger(rand.New(rand.NewSource(seed)), "ex", 12)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 15; seed++ {
				for _, threads := range []int{1, 3} {
					for _, corrupt := range []bool{false, true} {
						h := tc.gen(seed, threads)
						if corrupt {
							var ok bool
							h, ok = corruptRet(rand.New(rand.NewSource(seed^0x5eed)), h)
							if !ok {
								continue
							}
						}
						v := streamVerdict(t, tc.sp, h, Config{CheckEvery: 8})
						if v.Status == Degraded {
							continue
						}
						b := batchVerdict(t, tc.sp, h)
						switch {
						case v.Status == Violation && b.Verdict != check.Unsat:
							t.Fatalf("%s seed %d threads %d corrupt %v: stream %s but batch %v\n%v",
								tc.name, seed, threads, corrupt, v, b.Verdict, h)
						case v.Status == SatSoFar && b.Verdict == check.Unsat:
							t.Fatalf("%s seed %d threads %d corrupt %v: stream %s but batch Unsat (%s)\n%v",
								tc.name, seed, threads, corrupt, v, b.Reason, h)
						}
					}
				}
			}
		})
	}
}

// TestStreamViolationAtExactEvent pins the exact-k contract on the
// incremental queue path: a dequeue of a never-enqueued value is flagged
// at the dequeue's response event, not at a later re-check boundary.
func TestStreamViolationAtExactEvent(t *testing.T) {
	sp := spec.NewQueue("q")
	h := history.History{
		history.Inv(1, "q", spec.MethodEnq, history.Int(1)),
		history.Res(1, "q", spec.MethodEnq, history.Bool(true)),
		history.Inv(1, "q", spec.MethodDeq, history.Unit()),
		history.Res(1, "q", spec.MethodDeq, history.Pair(true, 2)), // event 3: value 2 never enqueued
	}
	s, err := New(sp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FeedAll(h); err != nil {
		t.Fatal(err)
	}
	v := s.Verdict()
	if v.Status != Violation || v.AtEvent != 3 {
		t.Fatalf("want VIOLATION-at-event-3, got %s (at %d)", v, v.AtEvent)
	}
	if !strings.HasPrefix(v.String(), "VIOLATION-at-event-3:") {
		t.Fatalf("display string %q", v.String())
	}
	if v.Engine != "monitor:queue" {
		t.Fatalf("engine %q, want monitor:queue", v.Engine)
	}
	// Sticky across further feeds and Close.
	if err := s.Feed(history.Inv(2, "q", spec.MethodEnq, history.Int(9))); err != nil {
		t.Fatal(err)
	}
	final := s.Close()
	if final.Status != Violation || final.AtEvent != 3 || !final.Final {
		t.Fatalf("final verdict drifted: %s (at %d, final %v)", final, final.AtEvent, final.Final)
	}
	if err := s.Feed(history.Res(2, "q", spec.MethodEnq, history.Bool(true))); err != ErrClosed {
		t.Fatalf("Feed after Close: %v, want ErrClosed", err)
	}
}

// TestStreamMonitorFallsBackToDFS: a duplicate-value stack history is
// outside the monitor's unambiguous fragment but perfectly linearizable;
// while the fallback window still holds the full prefix the stream must
// switch engines and decide it exactly.
func TestStreamMonitorFallsBackToDFS(t *testing.T) {
	sp := spec.NewStack("s")
	h := history.History{
		history.Inv(1, "s", spec.MethodPush, history.Int(1)),
		history.Res(1, "s", spec.MethodPush, history.Bool(true)),
		history.Inv(1, "s", spec.MethodPush, history.Int(1)), // duplicate value: ambiguous for the monitor
		history.Res(1, "s", spec.MethodPush, history.Bool(true)),
		history.Inv(1, "s", spec.MethodPop, history.Unit()),
		history.Res(1, "s", spec.MethodPop, history.Pair(true, 1)),
		history.Inv(1, "s", spec.MethodPop, history.Unit()),
		history.Res(1, "s", spec.MethodPop, history.Pair(true, 1)),
	}
	v := streamVerdict(t, sp, h, Config{CheckEvery: 1})
	if v.Status != SatSoFar {
		t.Fatalf("want Sat, got %s", v)
	}
	if v.Engine != "dfs" {
		t.Fatalf("engine %q, want dfs after fallback", v.Engine)
	}
}

// TestStreamLeavesFragmentAfterShedDegrades pins the honesty boundary: a
// monitored stream that has shed its fallback window and then leaves the
// unambiguous fragment cannot re-check the prefix it no longer holds, so
// it degrades instead of guessing, and keeps counting events.
func TestStreamLeavesFragmentAfterShedDegrades(t *testing.T) {
	s, err := New(spec.NewQueue("q"), Config{Window: 8, CheckEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	feedBalancedQueue(t, s, 4, -1) // 16 events: past the window, so shed
	if v := s.Verdict(); v.Status != SatSoFar || v.Shed == 0 {
		t.Fatalf("after the pristine prefix: %s (shed %d), want Sat-so-far with a shed window", v, v.Shed)
	}
	h := history.History{
		history.Inv(1, "q", spec.MethodEnq, history.Int(100)),
		history.Res(1, "q", spec.MethodEnq, history.Bool(true)),
		// 100 is still in the queue: enqueuing it again is ambiguous.
		history.Inv(2, "q", spec.MethodEnq, history.Int(100)),
		history.Res(2, "q", spec.MethodEnq, history.Bool(true)),
		history.Inv(1, "q", spec.MethodDeq, history.Unit()),
		history.Res(1, "q", spec.MethodDeq, history.Pair(true, 100)),
	}
	if err := s.FeedAll(h); err != nil {
		t.Fatal(err)
	}
	v := s.Close()
	if v.Status != Degraded {
		t.Fatalf("want Degraded, got %s", v)
	}
	if !strings.Contains(v.Reason, "fallback window was already shed") {
		t.Fatalf("reason %q does not name the shed window", v.Reason)
	}
	if v.Shed == 0 {
		t.Fatal("the stream must report its shed window")
	}
	if v.Events != 16+int64(len(h)) {
		t.Fatalf("events %d, want %d (degraded streams keep counting)", v.Events, 16+len(h))
	}
}

// TestStreamWindowOverflowDegrades: a DFS-only object that outgrows the
// fallback window degrades honestly (after one last exact check) and
// sheds its buffer; events keep being counted afterwards.
func TestStreamWindowOverflowDegrades(t *testing.T) {
	sp := spec.NewExchanger("ex")
	h := genExchanger(rand.New(rand.NewSource(7)), "ex", 20)
	s, err := New(sp, Config{Window: 16, CheckEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FeedAll(h); err != nil {
		t.Fatal(err)
	}
	v := s.Close()
	if v.Status != Degraded {
		t.Fatalf("want Degraded, got %s", v)
	}
	if !strings.Contains(v.Reason, "window") {
		t.Fatalf("reason %q does not mention the window", v.Reason)
	}
	if v.Shed == 0 {
		t.Fatal("window overflow must shed the buffer")
	}
	if v.Events != int64(len(h)) {
		t.Fatalf("events %d, want %d (degraded streams keep counting)", v.Events, len(h))
	}
}

// TestStreamCancelDegrades: cancelling mid-stream turns the next DFS
// re-check into honest degradation instead of a block or an error.
func TestStreamCancelDegrades(t *testing.T) {
	sp := spec.NewExchanger("ex")
	h := genExchanger(rand.New(rand.NewSource(3)), "ex", 12)
	s, err := New(sp, Config{CheckEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range h {
		if i == len(h)/2 {
			s.Cancel()
		}
		if err := s.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	v := s.Close()
	if v.Status != Degraded {
		t.Fatalf("cancelled stream: want Degraded, got %s", v)
	}
}

// TestStreamProductDemux: a product specification demultiplexes into one
// engine per object; a violation on either object decides the stream,
// and events on unconstrained objects are transport errors.
func TestStreamProductDemux(t *testing.T) {
	sp := spec.MustProduct(spec.NewQueue("q"), spec.NewStack("s"))
	s, err := New(sp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(history.Inv(1, "zzz", spec.MethodEnq, history.Int(1))); err == nil {
		t.Fatal("event on unconstrained object must be rejected")
	}
	h := history.History{
		history.Inv(1, "s", spec.MethodPush, history.Int(7)),
		history.Res(1, "s", spec.MethodPush, history.Bool(true)),
		history.Inv(2, "q", spec.MethodEnq, history.Int(1)),
		history.Res(2, "q", spec.MethodEnq, history.Bool(true)),
		history.Inv(2, "q", spec.MethodDeq, history.Unit()),
		history.Res(2, "q", spec.MethodDeq, history.Pair(true, 42)), // never enqueued
	}
	if err := s.FeedAll(h); err != nil {
		t.Fatal(err)
	}
	v := s.Close()
	if v.Status != Violation || v.AtEvent != 5 {
		t.Fatalf("want VIOLATION-at-event-5 (q's bad deq), got %s (at %d)", v, v.AtEvent)
	}
	if v.Engine != "mixed" {
		t.Fatalf("engine %q, want mixed (queue stepper + stack replay)", v.Engine)
	}
}

// TestStreamFeedTransportErrors: ill-formed events are rejected without
// advancing the stream or poisoning the verdict.
func TestStreamFeedTransportErrors(t *testing.T) {
	s, err := New(spec.NewQueue("q"), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(history.Inv(1, "q", spec.MethodEnq, history.Int(1))); err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(history.Inv(1, "q", spec.MethodEnq, history.Int(2))); err == nil {
		t.Fatal("double invocation on one thread must be rejected")
	}
	if err := s.Feed(history.Res(2, "q", spec.MethodDeq, history.Pair(true, 1))); err == nil {
		t.Fatal("response without a pending invocation must be rejected")
	}
	v := s.Verdict()
	if v.Status != SatSoFar || v.Events != 1 {
		t.Fatalf("rejected events advanced the stream: %s (events %d)", v, v.Events)
	}
}

// feedBalancedQueue streams nCycles sequential enq/deq cycles (4 events
// each) through s, alternating two threads. badCycle >= 0 corrupts that
// cycle's dequeue to return a never-enqueued value and returns the
// stream index of the corrupted response event; otherwise returns -1.
func feedBalancedQueue(t *testing.T, s *Stream, nCycles, badCycle int) int64 {
	t.Helper()
	badAt := int64(-1)
	idx := int64(0)
	feed := func(ev history.Event) {
		t.Helper()
		if err := s.Feed(ev); err != nil {
			t.Fatalf("event %d: %v", idx, err)
		}
		idx++
	}
	for c := 0; c < nCycles; c++ {
		th := history.ThreadID(1 + c%2)
		v := int64(c + 1)
		feed(history.Inv(th, "q", spec.MethodEnq, history.Int(v)))
		feed(history.Res(th, "q", spec.MethodEnq, history.Bool(true)))
		feed(history.Inv(th, "q", spec.MethodDeq, history.Unit()))
		ret := v
		if c == badCycle {
			ret = int64(1) << 40
			badAt = idx
		}
		feed(history.Res(th, "q", spec.MethodDeq, history.Pair(true, ret)))
	}
	return badAt
}

// TestStreamBoundedMemoryMillionEvents is the acceptance pin: a
// 1M-event unambiguous queue stream runs in bounded resident memory
// (shedding active, high-water far below the stream length) and an
// injected defect near the end is reported at its exact event index.
func TestStreamBoundedMemoryMillionEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event soak; skipped with -short")
	}
	const cycles = 250_000 // 4 events each = 1M events
	const window = 1024

	t.Run("pristine", func(t *testing.T) {
		m := obs.NewMetrics()
		s, err := New(spec.NewQueue("q"), Config{Window: window, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		feedBalancedQueue(t, s, cycles, -1)
		v := s.Close()
		if v.Status != SatSoFar {
			t.Fatalf("pristine stream: want Sat, got %s", v)
		}
		if v.Events != 4*cycles {
			t.Fatalf("events %d, want %d", v.Events, 4*cycles)
		}
		if v.Shed == 0 {
			t.Fatal("a 1M-event stream must shed decided state")
		}
		if v.HighWater > 4*window {
			t.Fatalf("high-water %d exceeds the memory bound (window %d)", v.HighWater, window)
		}
		if got := m.Counter("stream.shed").Value(); got != v.Shed {
			t.Fatalf("stream.shed counter %d, verdict Shed %d", got, v.Shed)
		}
	})

	t.Run("defect-at-exact-k", func(t *testing.T) {
		s, err := New(spec.NewQueue("q"), Config{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		badAt := feedBalancedQueue(t, s, cycles, cycles-2)
		v := s.Close()
		if v.Status != Violation {
			t.Fatalf("want Violation, got %s", v)
		}
		if v.AtEvent != badAt {
			t.Fatalf("VIOLATION-at-event-%d, want exact k=%d", v.AtEvent, badAt)
		}
	})
}
