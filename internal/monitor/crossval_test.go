package monitor_test

import (
	"context"
	"math/rand"
	"testing"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/monitor"
	"calgo/internal/spec"
)

// Cross-validation property test (the ISSUE's agreement pin): for every
// object kind with a specialized monitor and thousands of generated
// small histories — linearizable by construction, plus return-value
// mutants that are usually not — the monitor and the DFS must agree:
//
//   - a definite monitor outcome (OK / Violation) must equal the DFS
//     verdict (Sat / Unsat);
//   - an auto-engine checker must return exactly the DFS verdict.
//
// On disagreement the history is printed in the interchange format so it
// can be replayed with `calcheck -spec <kind> -engine dfs <file>`.

const xobj = history.ObjectID("o")

type crossKind struct {
	name string
	sp   spec.Spec
	gen  func(n, threads int, seed int64, obj history.ObjectID) history.History
}

func crossKinds() []crossKind {
	return []crossKind{
		{"queue", spec.NewQueue(xobj), monitor.GenQueue},
		{"stack", spec.Stack{Obj: xobj}, monitor.GenStack},
		{"set", spec.NewSet(xobj), monitor.GenSet},
		{"pqueue", spec.NewPQueue(xobj), monitor.GenPQueue},
	}
}

// mutate returns a copy of h with one response value perturbed — the
// cheapest way to manufacture histories that are ill-formed for the
// object's semantics while staying well-formed as histories.
func mutate(h history.History, rng *rand.Rand) history.History {
	out := append(history.History(nil), h...)
	// Collect response positions.
	var resIdx []int
	for i, e := range out {
		if !e.IsInv() {
			resIdx = append(resIdx, i)
		}
	}
	if len(resIdx) == 0 {
		return out
	}
	i := resIdx[rng.Intn(len(resIdx))]
	e := out[i]
	switch e.Ret.Kind {
	case history.KindBool:
		e.Ret = history.Bool(!e.Ret.B)
	case history.KindPair:
		switch rng.Intn(3) {
		case 0:
			e.Ret = history.Pair(!e.Ret.B, 0)
		case 1:
			e.Ret = history.Pair(true, e.Ret.N+1)
		default:
			e.Ret = history.Pair(e.Ret.B, rng.Int63n(8))
		}
	default:
		return out
	}
	out[i] = e
	return out
}

func TestMonitorDFSCrossValidation(t *testing.T) {
	baseSeeds := 250
	if testing.Short() {
		baseSeeds = 40
	}
	ctx := context.Background()
	for _, k := range crossKinds() {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			seeds, maxOps, maxThreads := baseSeeds, 10, 3
			variants := func(h history.History, rng *rand.Rand, seed int64) []history.History {
				return []history.History{h, mutate(h, rng), mutate(h, rng)}
			}
			if k.name == "queue" {
				// The queue monitor is the stepper /streams runs, so it
				// gets the widest sweep: up to 24 ops on up to 5 threads,
				// plus the stepper tests' fresh-value and spurious-empty
				// mutants.
				seeds, maxOps, maxThreads = 3*baseSeeds, 22, 5
				variants = func(h history.History, rng *rand.Rand, seed int64) []history.History {
					out := []history.History{h, mutate(h, rng), mutate(h, rng)}
					if m, ok := monitor.MutateDeqFresh(h, seed); ok {
						out = append(out, m)
					}
					if m, ok := monitor.MutateDeqEmpty(h, seed); ok {
						out = append(out, m)
					}
					return out
				}
			}
			// The state cap bounds the rare mutant whose refutation is
			// exhaustive; an Unknown DFS verdict is skipped below.
			dfs, err := check.NewChecker(k.sp, check.WithMaxStates(crossMaxStates))
			if err != nil {
				t.Fatalf("NewChecker(dfs): %v", err)
			}
			auto, err := check.NewChecker(k.sp, check.WithEngine(check.EngineAuto), check.WithMaxStates(crossMaxStates))
			if err != nil {
				t.Fatalf("NewChecker(auto): %v", err)
			}
			checked, monitorDecided, overBudget := 0, 0, 0
			for seed := int64(0); seed < int64(seeds); seed++ {
				rng := rand.New(rand.NewSource(seed * 7919))
				base := k.gen(3+int(seed)%maxOps, 1+int(seed)%maxThreads, seed, xobj)
				for _, h := range variants(base, rng, seed) {
					dres, err := dfs.Check(ctx, h)
					if err != nil {
						t.Fatalf("seed %d: dfs check: %v", seed, err)
					}
					if dres.Verdict == check.Unknown {
						overBudget++ // nothing to compare against
						continue
					}
					ares, err := auto.Check(ctx, h)
					if err != nil {
						t.Fatalf("seed %d: auto check: %v", seed, err)
					}
					checked++
					if ares.Verdict != dres.Verdict {
						t.Fatalf("seed %d: engine disagreement: auto=%s (engine %s) dfs=%s\nreplay with calcheck -engine dfs on:\n%s",
							seed, ares.Verdict, ares.Engine, dres.Verdict, history.Format(h))
					}
					mres := monitor.Check(h, k.sp)
					switch mres.Outcome {
					case monitor.OK, monitor.Violation:
						monitorDecided++
						want := mres.Outcome == monitor.OK
						if want != (dres.Verdict == check.Sat) {
							t.Fatalf("seed %d: monitor disagreement: monitor=%s (%s) dfs=%s\nreplay with calcheck -engine dfs on:\n%s",
								seed, mres.Outcome, mres.Reason, dres.Verdict, history.Format(h))
						}
					}
				}
			}
			if checked == 0 {
				t.Fatal("cross-validation compared zero histories")
			}
			if monitorDecided == 0 {
				t.Fatal("monitor decided zero histories; the fast path is not being exercised")
			}
			t.Logf("%s: %d histories compared, %d decided by the monitor, %d over the DFS budget",
				k.name, checked, monitorDecided, overBudget)
		})
	}
}

// crossMaxStates caps each DFS run of the cross-validation.
const crossMaxStates = 20_000
