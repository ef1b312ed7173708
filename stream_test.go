package calgo_test

import (
	"strings"
	"testing"

	"calgo"
)

// TestNewStreamEndToEnd drives the facade streaming API: a queue defect
// is reported at its exact event index, with the stream metrics visible
// through the shared registry.
func TestNewStreamEndToEnd(t *testing.T) {
	m := calgo.NewMetrics()
	s, err := calgo.NewStream(calgo.NewQueueSpec("q"),
		calgo.WithStreamWindow(128),
		calgo.WithStreamCheckEvery(16),
		calgo.WithMetrics(m),
		calgo.WithMaxStates(100_000),
	)
	if err != nil {
		t.Fatal(err)
	}
	h := calgo.History{
		calgo.Inv(1, "q", "enq", calgo.Int(1)),
		calgo.Res(1, "q", "enq", calgo.Bool(true)),
		calgo.Inv(2, "q", "deq", calgo.Unit()),
		calgo.Res(2, "q", "deq", calgo.Pair(true, 7)), // event 3: 7 was never enqueued
	}
	for _, ev := range h {
		if err := s.Feed(ev); err != nil {
			t.Fatal(err)
		}
	}
	v := s.Close()
	if v.Status != calgo.StreamViolation || v.AtEvent != 3 {
		t.Fatalf("want VIOLATION-at-event-3, got %s", v)
	}
	if err := s.Feed(h[0]); err != calgo.ErrStreamClosed {
		t.Fatalf("Feed after Close: %v, want ErrStreamClosed", err)
	}
	if got := m.Counter("stream.events").Value(); got != 4 {
		t.Fatalf("stream.events = %d, want 4", got)
	}
	if got := m.Counter("stream.violations").Value(); got != 1 {
		t.Fatalf("stream.violations = %d, want 1", got)
	}
}

// TestNewStreamRejectsForeignOptions pins the facade contract: options
// that do not apply to streams fail construction instead of being
// silently dropped, and so does batch engine selection, since a stream
// picks each object's decision path from its spec.
func TestNewStreamRejectsForeignOptions(t *testing.T) {
	if _, err := calgo.NewStream(calgo.NewQueueSpec("q"), calgo.WithInvariant(nil)); err == nil ||
		!strings.Contains(err.Error(), "WithInvariant") {
		t.Fatalf("explorer option accepted by NewStream: %v", err)
	}
	if _, err := calgo.NewStream(calgo.NewQueueSpec("q"), calgo.WithEngine(calgo.EngineAuto)); err == nil ||
		!strings.Contains(err.Error(), "WithEngine") {
		t.Fatalf("WithEngine accepted by NewStream: %v", err)
	}
}

// TestNewStreamDecisionPathBySpec: the spec alone picks each object's
// decision path, and Verdict.Engine names it: the stepper for a spec
// with a monitor at element size 1, the windowed DFS re-check for one
// without (the exchanger's swaps are elements of size 2).
func TestNewStreamDecisionPathBySpec(t *testing.T) {
	for _, tc := range []struct {
		sp   calgo.Spec
		want string
	}{
		{calgo.NewQueueSpec("q"), "monitor:queue"},
		{calgo.NewStackSpec("s"), "monitor:stack"},
		{calgo.NewExchangerSpec("ex"), "dfs"},
	} {
		s, err := calgo.NewStream(tc.sp)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Close().Engine; got != tc.want {
			t.Errorf("%s: engine %q, want %q", tc.sp.Name(), got, tc.want)
		}
	}
}
