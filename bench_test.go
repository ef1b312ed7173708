// Benchmarks regenerating the experiment series of EXPERIMENTS.md with
// testing.B. Each Benchmark* family corresponds to one experiment row
// (B1-B6 plus the checker/model-checker cost series B3/B4 and the
// instrumentation-overhead ablation A1); cmd/calbench prints the same
// measurements as wall-clock sweep tables.
package calgo_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"calgo"
	"calgo/internal/model"
	"calgo/internal/sched"
	"calgo/internal/spec"
)

// tidCounter hands out distinct thread ids to RunParallel workers.
var tidCounter atomic.Int64

func nextTid() calgo.ThreadID { return calgo.ThreadID(tidCounter.Add(1)) }

// ---- B1: stack throughput (elimination vs Treiber vs lock) ----

func benchStack(b *testing.B, push func(calgo.ThreadID, int64), pop func(calgo.ThreadID)) {
	b.Helper()
	for _, par := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			b.SetParallelism(par)
			b.RunParallel(func(pb *testing.PB) {
				tid := nextTid()
				for pb.Next() {
					push(tid, int64(tid))
					pop(tid)
				}
			})
		})
	}
}

func BenchmarkStacksTreiber(b *testing.B) {
	s := calgo.NewTreiberStack("S")
	benchStack(b,
		func(t calgo.ThreadID, v int64) { s.Push(t, v) },
		func(t calgo.ThreadID) { s.Pop(t) })
}

func BenchmarkStacksElimination(b *testing.B) {
	s, err := calgo.NewElimStack("ES", calgo.ElimStackWithSlots(4), calgo.ElimStackWithWaitPolicy(calgo.SpinWait(1)))
	if err != nil {
		b.Fatal(err)
	}
	benchStack(b,
		func(t calgo.ThreadID, v int64) { _ = s.Push(t, v) },
		func(t calgo.ThreadID) { s.Pop(t) })
}

func BenchmarkStacksLock(b *testing.B) {
	s := calgo.NewLockStack()
	benchStack(b,
		func(t calgo.ThreadID, v int64) { s.Push(t, v) },
		func(t calgo.ThreadID) { s.Pop(t) })
}

// ---- B2: exchanger pairing throughput ----

func BenchmarkExchangerCAS(b *testing.B) {
	ex := calgo.NewExchanger("E", calgo.ExchangerWithWaitPolicy(calgo.SpinWait(1)))
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		tid := nextTid()
		for pb.Next() {
			ex.Exchange(tid, int64(tid))
		}
	})
}

func BenchmarkExchangerLock(b *testing.B) {
	ex := calgo.NewLockExchanger(50 * time.Microsecond)
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		tid := nextTid()
		for pb.Next() {
			ex.Exchange(tid, int64(tid))
		}
	})
}

// ---- B3: CAL checker cost vs history size and element width ----

// swapHistory builds a valid exchanger history of n sequential swap rounds
// between 2k overlapping threads per round.
func swapHistory(rounds, pairsPerRound int) calgo.History {
	var h calgo.History
	v := int64(0)
	for r := 0; r < rounds; r++ {
		base := calgo.ThreadID(1)
		for p := 0; p < pairsPerRound; p++ {
			t1, t2 := base+calgo.ThreadID(2*p), base+calgo.ThreadID(2*p+1)
			h = append(h,
				calgo.Inv(t1, "E", calgo.MethodExchange, calgo.Int(v)),
				calgo.Inv(t2, "E", calgo.MethodExchange, calgo.Int(v+1)),
			)
			v += 2
		}
		for p := 0; p < pairsPerRound; p++ {
			t1, t2 := base+calgo.ThreadID(2*p), base+calgo.ThreadID(2*p+1)
			w := v - int64(2*(pairsPerRound-p))
			h = append(h,
				calgo.Res(t1, "E", calgo.MethodExchange, calgo.Pair(true, w+1)),
				calgo.Res(t2, "E", calgo.MethodExchange, calgo.Pair(true, w)),
			)
		}
	}
	return h
}

func BenchmarkCheckerCAL(b *testing.B) {
	for _, cfg := range []struct{ rounds, pairs int }{
		{5, 1}, {20, 1}, {5, 2}, {10, 2}, {5, 3},
	} {
		h := swapHistory(cfg.rounds, cfg.pairs)
		sp := calgo.NewExchangerSpec("E")
		b.Run(fmt.Sprintf("ops=%d/width=%d", len(h)/2, 2*cfg.pairs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := calgo.CAL(context.Background(), h, sp)
				if err != nil || !r.OK {
					b.Fatalf("CAL failed: %v %s", err, r.Reason)
				}
			}
		})
	}
}

// BenchmarkCheckerMemoAblation quantifies design decision 3 of DESIGN.md:
// Lowe-style memoization of failed search nodes.
func BenchmarkCheckerMemoAblation(b *testing.B) {
	h := swapHistory(6, 2)
	sp := calgo.NewExchangerSpec("E")
	b.Run("memo=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r, err := calgo.CAL(context.Background(), h, sp); err != nil || !r.OK {
				b.Fatal(err, r.Reason)
			}
		}
	})
	b.Run("memo=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r, err := calgo.CAL(context.Background(), h, sp, calgo.WithoutMemo()); err != nil || !r.OK {
				b.Fatal(err, r.Reason)
			}
		}
	})
}

// BenchmarkCheckerLinVsCAL compares the sequential special case against the
// general search on the same (all-fail, hence sequentially explainable)
// history.
func BenchmarkCheckerLinVsCAL(b *testing.B) {
	var h calgo.History
	for i := 0; i < 50; i++ {
		t := calgo.ThreadID(i%4 + 1)
		h = append(h,
			calgo.Inv(t, "E", calgo.MethodExchange, calgo.Int(int64(i))),
			calgo.Res(t, "E", calgo.MethodExchange, calgo.Pair(false, int64(i))),
		)
	}
	sp := calgo.NewExchangerSpec("E")
	b.Run("lin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r, err := calgo.Linearizable(context.Background(), h, sp); err != nil || !r.OK {
				b.Fatal(err, r.Reason)
			}
		}
	})
	b.Run("cal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r, err := calgo.CAL(context.Background(), h, sp); err != nil || !r.OK {
				b.Fatal(err, r.Reason)
			}
		}
	})
}

// BenchmarkAgrees measures the Definition 5 matcher on a forced matching.
func BenchmarkAgrees(b *testing.B) {
	for _, rounds := range []int{10, 40} {
		h := swapHistory(rounds, 1)
		var tr calgo.Trace
		v := int64(0)
		for r := 0; r < rounds; r++ {
			tr = append(tr, spec.SwapElement("E", 1, v, 2, v+1))
			v += 2
		}
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := calgo.Agrees(h, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCALHotPath measures checker node throughput (states/sec) on
// the B3 swap-history generator: the series gating the rewrite of the
// search core around per-thread heads and recycled scratch (before/after
// numbers in EXPERIMENTS.md §B10).
func BenchmarkCALHotPath(b *testing.B) {
	for _, cfg := range []struct{ rounds, pairs int }{
		{20, 1}, {40, 1}, {10, 2}, {20, 2}, {10, 3},
	} {
		h := swapHistory(cfg.rounds, cfg.pairs)
		// The checker is built once outside the loop: batch callers reuse
		// one Checker, so the hot path under measurement is Check alone.
		c, err := calgo.NewChecker(calgo.NewExchangerSpec("E"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ops=%d/width=%d", len(h)/2, 2*cfg.pairs), func(b *testing.B) {
			b.ReportAllocs()
			states := 0
			for i := 0; i < b.N; i++ {
				r, err := c.Check(context.Background(), h)
				if err != nil || !r.OK {
					b.Fatalf("CAL failed: %v %s", err, r.Reason)
				}
				states = r.States
			}
			b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
		})
	}
}

// ---- B4: model checker cost ----

func BenchmarkExploreExchanger(b *testing.B) {
	for _, threads := range []int{2, 3} {
		programs := make([][]int64, threads)
		for t := range programs {
			programs[t] = []int64{int64(t + 1)}
		}
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				init := model.NewExchanger(model.ExchangerConfig{Programs: programs})
				stats, err := sched.Explore(context.Background(),
					init,
					sched.WithTerminal(model.VerifyCAL(spec.NewExchanger("E"), nil, false)))
				if err != nil {
					b.Fatal(err)
				}
				states = stats.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

func BenchmarkExploreExchangerFullBattery(b *testing.B) {
	// Same exploration with all checks on: measures the verification
	// overhead of the proof-outline + rely/guarantee hooks.
	programs := [][]int64{{1}, {2}, {3}}
	for i := 0; i < b.N; i++ {
		init := model.NewExchanger(model.ExchangerConfig{Programs: programs})
		_, err := sched.Explore(context.Background(),
			init,
			sched.WithInvariant(func(st sched.State) error {
				if err := model.InvariantJ(st); err != nil {
					return err
				}
				return model.ProofOutline(st)
			}),
			sched.WithTerminal(model.VerifyCAL(spec.NewExchanger("E"), nil, true)))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExploreElimStack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		init := model.NewElimStack(model.ESConfig{
			Slots:   1,
			Retries: 2,
			Programs: [][]model.StackOp{
				{model.Push(1)}, {model.Pop()},
			},
		})
		_, err := sched.Explore(context.Background(),
			init,
			sched.WithTerminal(model.VerifyCAL(spec.NewStack("ES"), init.Project, false)),
			sched.WithDeadlockAllowed())
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreParallel sweeps the work-stealing engine's worker count
// over the F1 (exchanger, 12,223 states) and F2 (elimination stack,
// 61,851 states) models; the EXPERIMENTS.md speedup table comes from this
// series. State counts are identical at every worker count.
func BenchmarkExploreParallel(b *testing.B) {
	mkF1 := func() (sched.State, []sched.Option) {
		init := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{3}, {4}, {7}}})
		return init, []sched.Option{sched.WithTerminal(model.VerifyCAL(spec.NewExchanger("E"), nil, false))}
	}
	mkF2 := func() (sched.State, []sched.Option) {
		init := model.NewElimStack(model.ESConfig{
			Slots:   1,
			Retries: 2,
			Programs: [][]model.StackOp{
				{model.Push(1)}, {model.Push(2)}, {model.Pop()},
			},
		})
		return init, []sched.Option{
			sched.WithTerminal(model.VerifyCAL(spec.NewStack("ES"), init.Project, false)),
			sched.WithDeadlockAllowed(),
		}
	}
	for _, m := range []struct {
		name string
		mk   func() (sched.State, []sched.Option)
	}{{"F1", mkF1}, {"F2", mkF2}} {
		for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", m.name, workers), func(b *testing.B) {
				var states int
				for i := 0; i < b.N; i++ {
					init, opts := m.mk()
					opts = append(opts, sched.WithParallelism(workers))
					stats, err := sched.Explore(context.Background(), init, opts...)
					if err != nil {
						b.Fatal(err)
					}
					states = stats.States
				}
				b.ReportMetric(float64(states), "states")
			})
		}
	}
}

// ---- B5: synchronous queue hand-off throughput ----

func BenchmarkSyncQueue(b *testing.B) {
	q := calgo.NewSyncQueue("SQ", calgo.SyncQueueWithWaitPolicy(calgo.SpinWait(1)))
	b.SetParallelism(2)
	b.RunParallel(func(pb *testing.PB) {
		tid := nextTid()
		for pb.Next() {
			if tid%2 == 0 {
				q.TryPut(tid, int64(tid))
			} else {
				q.TryTake(tid)
			}
		}
	})
}

// ---- B6: elimination array width ablation ----

func BenchmarkElimK(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			es, err := calgo.NewElimStack("ES", calgo.ElimStackWithSlots(k), calgo.ElimStackWithWaitPolicy(calgo.SpinWait(1)))
			if err != nil {
				b.Fatal(err)
			}
			b.SetParallelism(8)
			b.RunParallel(func(pb *testing.PB) {
				tid := nextTid()
				for pb.Next() {
					_ = es.Push(tid, int64(tid))
					es.Pop(tid)
				}
			})
		})
	}
}

// ---- B7: FIFO queues ----

func BenchmarkQueueMichaelScott(b *testing.B) {
	q := calgo.NewMSQueue("Q")
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		tid := nextTid()
		for pb.Next() {
			q.Enq(tid, int64(tid))
			q.Deq(tid)
		}
	})
}

func BenchmarkQueueLock(b *testing.B) {
	q := calgo.NewLockQueue()
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		tid := nextTid()
		for pb.Next() {
			q.Enq(tid, int64(tid))
			q.Deq(tid)
		}
	})
}

// ---- B8: dual stack hand-offs ----

func BenchmarkDualStack(b *testing.B) {
	s := calgo.NewDualStack("DS", calgo.DualStackWithWaitPolicy(calgo.SpinWait(1)))
	b.SetParallelism(2)
	b.RunParallel(func(pb *testing.PB) {
		tid := nextTid()
		for pb.Next() {
			if tid%2 == 0 {
				s.Push(tid, int64(tid))
			} else {
				s.TryPop(tid, 4)
			}
		}
	})
}

// ---- B9: checker on wide CA-elements (immediate snapshot blocks) ----

func BenchmarkCheckerSnapshotBlocks(b *testing.B) {
	for _, n := range []int{3, 5} {
		// All n participants overlap and form one block of size n.
		var h calgo.History
		for p := 0; p < n; p++ {
			h = append(h, calgo.Inv(calgo.ThreadID(p+1), "IS", calgo.MethodUpdate, calgo.Int(int64(p))))
		}
		for p := 0; p < n; p++ {
			h = append(h, calgo.Res(calgo.ThreadID(p+1), "IS", calgo.MethodUpdate, calgo.Pair(true, int64(n))))
		}
		sp := calgo.NewSnapshotSpec("IS", n)
		b.Run(fmt.Sprintf("block=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := calgo.CAL(context.Background(), h, sp)
				if err != nil || !r.OK {
					b.Fatalf("CAL failed: %v %s", err, r.Reason)
				}
			}
		})
	}
}

// ---- A1: instrumentation overhead ablation ----

// BenchmarkInstrumentationOverhead measures the cost of the auxiliary-trace
// recorder on the exchanger fast path (uninstrumented vs instrumented).
func BenchmarkInstrumentationOverhead(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		ex := calgo.NewExchanger("E", calgo.ExchangerWithWaitPolicy(calgo.NoWait{}))
		tid := nextTid()
		for i := 0; i < b.N; i++ {
			ex.Exchange(tid, int64(i))
		}
	})
	b.Run("recorded", func(b *testing.B) {
		rec := calgo.NewRecorder()
		ex := calgo.NewExchanger("E",
			calgo.ExchangerWithWaitPolicy(calgo.NoWait{}),
			calgo.ExchangerWithRecorder(rec),
		)
		tid := nextTid()
		for i := 0; i < b.N; i++ {
			ex.Exchange(tid, int64(i))
		}
	})
}

// BenchmarkRecorderView measures view derivation (F̂ composition +
// projection) over a large recorded trace.
func BenchmarkRecorderView(b *testing.B) {
	rec := calgo.NewRecorder()
	es, err := calgo.NewElimStack("ES", calgo.ElimStackWithRecorder(rec), calgo.ElimStackWithWaitPolicy(calgo.SpinWait(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2_000; i++ {
		tid := calgo.ThreadID(rng.Intn(4) + 1)
		if rng.Intn(2) == 0 {
			_ = es.Push(tid, int64(i))
		} else {
			es.TryPop(tid, 1)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr := rec.View("ES"); len(tr) == 0 {
			b.Fatal("empty view")
		}
	}
}
