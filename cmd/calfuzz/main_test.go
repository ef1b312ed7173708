package main

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"calgo"
	"calgo/internal/cliflags"
)

// testShared registers the shared flag set once for the test binary; its
// unparsed defaults (-timeout 0, -workers 0, observability off) match
// what the old direct checkBatch parameters exercised.
var testShared = func() *cliflags.Set {
	s := cliflags.Register("calfuzz")
	s.RegisterStream()
	return s
}()

// fuzzAndCheck runs one fuzzer iteration end to end: the inline
// structural checks plus the (normally batched) CAL check.
func fuzzAndCheck(t *testing.T, name string, fuzz func(*rand.Rand, *calgo.ChaosInjector) (pending, error), rng *rand.Rand, inj *calgo.ChaosInjector) error {
	t.Helper()
	run, err := fuzz(rng, inj)
	if err != nil {
		return err
	}
	return checkBatch(context.Background(), []pending{run}, name, "test", testShared)
}

func TestAllFuzzersOnce(t *testing.T) {
	for name, fuzz := range fuzzers {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				if err := fuzzAndCheck(t, name, fuzz, rand.New(rand.NewSource(seed)), nil); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

// TestAllFuzzersUnderChaos runs every fuzzer once per chaos policy: the
// full verification battery must still pass with faults injected.
func TestAllFuzzersUnderChaos(t *testing.T) {
	for _, policy := range calgo.ChaosPolicyNames() {
		for name, fuzz := range fuzzers {
			policy, name, fuzz := policy, name, fuzz
			t.Run(policy+"/"+name, func(t *testing.T) {
				t.Parallel()
				seed := int64(7)
				inj := calgo.NewChaosInjector(calgo.ChaosPolicies()[policy], seed)
				if err := fuzzAndCheck(t, name, fuzz, rand.New(rand.NewSource(seed)), inj); err != nil {
					t.Fatalf("policy %s seed %d: %v", policy, seed, err)
				}
				if st := inj.Stats(); st.Points == 0 && policy != "none" {
					t.Errorf("policy %s visited no injection points", policy)
				}
			})
		}
	}
}

func TestVerifyRejectsBadTrace(t *testing.T) {
	h := calgo.History{
		calgo.Inv(1, "E", calgo.MethodExchange, calgo.Int(3)),
		calgo.Res(1, "E", calgo.MethodExchange, calgo.Pair(false, 3)),
	}
	// Trace claims a lone successful exchange: spec-invalid.
	badTrace := calgo.Trace{calgo.Singleton(calgo.Operation{
		Thread: 1, Object: "E", Method: calgo.MethodExchange,
		Arg: calgo.Int(3), Ret: calgo.Pair(true, 4),
	})}
	if _, err := verify(h, badTrace, calgo.NewExchangerSpec("E")); err == nil {
		t.Error("spec-invalid trace must fail verification")
	}
	// Trace valid for the spec but disagreeing with the history.
	otherTrace := calgo.Trace{calgo.Singleton(calgo.Operation{
		Thread: 2, Object: "E", Method: calgo.MethodExchange,
		Arg: calgo.Int(9), Ret: calgo.Pair(false, 9),
	})}
	if _, err := verify(h, otherTrace, calgo.NewExchangerSpec("E")); err == nil {
		t.Error("disagreeing trace must fail verification")
	}
	// Matching trace passes.
	good := calgo.Trace{calgo.Singleton(calgo.Operation{
		Thread: 1, Object: "E", Method: calgo.MethodExchange,
		Arg: calgo.Int(3), Ret: calgo.Pair(false, 3),
	})}
	run, err := verify(h, good, calgo.NewExchangerSpec("E"))
	if err != nil {
		t.Errorf("valid run failed verification: %v", err)
	}
	if err := checkBatch(context.Background(), []pending{run}, "exchanger", "none", testShared); err != nil {
		t.Errorf("valid run failed the batched CAL check: %v", err)
	}
}

// TestCheckedViewRejectsOverflow pins that a truncated bounded recorder is
// never used as verification evidence.
func TestCheckedViewRejectsOverflow(t *testing.T) {
	rec := calgo.NewBoundedRecorder(1)
	for i := 0; i < 3; i++ {
		rec.Append(calgo.Singleton(calgo.Operation{
			Thread: 1, Object: "E", Method: calgo.MethodExchange,
			Arg: calgo.Int(int64(i)), Ret: calgo.Pair(false, int64(i)),
		}))
	}
	_, err := checkedView(rec, "E")
	var of *calgo.RecorderOverflowError
	if !errors.As(err, &of) {
		t.Fatalf("checkedView on overflowed recorder = %v, want *RecorderOverflowError", err)
	}
	if of.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", of.Dropped)
	}
}

// TestCrossValidateStreamHonoursContext pins that the soak's stream runs
// under the soak's context: the exchanger has no monitor, so its stream
// re-checks with the DFS, and a cancelled context must degrade that
// re-check (an inconclusive soak) rather than let it run to a verdict.
func TestCrossValidateStreamHonoursContext(t *testing.T) {
	h := calgo.History{
		calgo.Inv(1, "E", calgo.MethodExchange, calgo.Int(3)),
		calgo.Inv(2, "E", calgo.MethodExchange, calgo.Int(4)),
		calgo.Res(1, "E", calgo.MethodExchange, calgo.Pair(true, 4)),
		calgo.Res(2, "E", calgo.MethodExchange, calgo.Pair(true, 3)),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := crossValidateStream(ctx, "swap", calgo.NewExchangerSpec("E"), h, testShared)
	if !errors.Is(err, errUnknown) || !strings.Contains(err.Error(), "stream degraded") {
		t.Fatalf("crossValidateStream under a cancelled context = %v; want %v with the stream degraded", err, errUnknown)
	}
}
