package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"calgo/internal/model"
	"calgo/internal/sched"
	"calgo/internal/spec"
)

// exploreModel is one of the §5 proof-obligation explorations with the
// exact state count it must reach.
type exploreModel struct {
	name   string
	states int
	// build returns the initial state and the invariant and terminal
	// hooks (invariant may be nil).
	build func() (sched.State, func(sched.State) error, func(sched.State) error, []sched.Option)
}

// exploreModels are F1, the exchanger running exchange(3) ‖ exchange(4) ‖
// exchange(7) under invariant J, the proof outline and the CAL terminal
// check, and F2, the elimination stack push(1) ‖ push(2) ‖ pop() with one
// slot and two retries under the CAL terminal check.
func exploreModels() []exploreModel {
	return []exploreModel{
		{name: "F1", states: 12_223, build: func() (sched.State, func(sched.State) error, func(sched.State) error, []sched.Option) {
			init := model.NewExchanger(model.ExchangerConfig{Programs: [][]int64{{3}, {4}, {7}}})
			inv := func(st sched.State) error {
				if err := model.InvariantJ(st); err != nil {
					return err
				}
				return model.ProofOutline(st)
			}
			return init, inv, model.VerifyCAL(spec.NewExchanger("E"), nil, true), nil
		}},
		{name: "F2", states: 61_851, build: func() (sched.State, func(sched.State) error, func(sched.State) error, []sched.Option) {
			init := model.NewElimStack(model.ESConfig{
				Slots: 1, Retries: 2,
				Programs: [][]model.StackOp{{model.Push(1)}, {model.Push(2)}, {model.Pop()}},
			})
			return init, nil, model.VerifyCAL(spec.NewStack("ES"), init.Project, true),
				[]sched.Option{sched.WithDeadlockAllowed()}
		}},
	}
}

// exploreStats accumulates the explore workload. Hooks run on every
// exploration worker at once, so everything they touch is atomic or
// locked.
type exploreStats struct {
	mu         sync.Mutex
	terminalMS []float64

	states, passes int
	elapsed        time.Duration

	invNS, invCalls, verNS, verCalls atomic.Int64
}

// explorePhase runs F1 then F2 at parallelism nproc, over and over, until
// d has passed (the pass under way then is completed) or, with d zero,
// for the given number of passes.
func explorePhase(d time.Duration, passes int, tr *tracer) (*exploreStats, error) {
	st := &exploreStats{}
	par := runtime.NumCPU()
	deadline := time.Now().Add(d)
	for (d > 0 && time.Now().Before(deadline)) || (d == 0 && st.passes < passes) {
		for _, m := range exploreModels() {
			init, inv, term, opts := m.build()
			root := tr.begin("sched.explore", 0, 0)
			traced := tr != nil
			timedTerm := func(s sched.State) error {
				sp := tr.begin("model.verify_cal", root.id(), root.req())
				start := time.Now()
				err := term(s)
				took := time.Since(start)
				sp.end()
				if traced {
					st.verNS.Add(took.Nanoseconds())
					st.verCalls.Add(1)
				}
				st.mu.Lock()
				st.terminalMS = append(st.terminalMS, float64(took.Nanoseconds())/1e6)
				st.mu.Unlock()
				return err
			}
			opts = append(opts, sched.WithTerminal(timedTerm), sched.WithParallelism(par))
			if inv != nil {
				timedInv := inv
				if traced {
					timedInv = func(s sched.State) error {
						sp := tr.begin("model.invariant", root.id(), root.req())
						err := inv(s)
						st.invNS.Add(sp.end().Nanoseconds())
						st.invCalls.Add(1)
						return err
					}
				}
				opts = append(opts, sched.WithInvariant(timedInv))
			}
			start := time.Now()
			stats, err := sched.Explore(context.Background(), init, opts...)
			st.elapsed += time.Since(start)
			root.end()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
			if stats.States != m.states {
				return nil, fmt.Errorf("%w: %s explored %d states, want %d", errWrong, m.name, stats.States, m.states)
			}
			st.states += stats.States
		}
		st.passes++
	}
	return st, nil
}

func runExplore(rc *runCtx) (*report, error) {
	rep := newReport()
	setup, err := probeSetup("explore")
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if !rc.trace {
		rss := rssWindows("self")
		st, err := explorePhase(rc.duration(), 0, nil)
		peak := rss()
		if err != nil {
			return nil, err
		}
		n := len(st.terminalMS)
		rep.attempted = int64(n)
		rep.set("setup_s", setup, setupProbes)
		rep.set("throughput_per_s", float64(st.states)/st.elapsed.Seconds(), st.passes)
		rep.alias["throughput_per_s"] = "states_per_s over the run"
		// Each pass has 8,542 terminal checks, so p99 has 85 beyond it per pass.
		setLatency(rep, st.terminalMS)
		rep.alias["latency_p50_ms"] = "per terminal CAL check"
		rep.alias["latency_p99_ms"] = "per terminal CAL check"
		rep.set("peak_rss_mb", peak, int(rc.duration()/rssWindowLen))
		rep.set("ok_ratio", 1, n)
		return rep, nil
	}
	tr := newTracer()
	st, err := explorePhase(rc.duration()/2, 0, tr)
	if err != nil {
		return nil, err
	}
	plain, err := explorePhase(0, st.passes, nil)
	if err != nil {
		return nil, err
	}
	rep.attempted = int64(len(st.terminalMS))
	passes := float64(st.passes)
	rep.set("tracing.overhead_pct", overheadPct(st.elapsed, plain.elapsed), st.passes)
	rep.set("model.invariant_ns", float64(st.invNS.Load())/passes, st.passes)
	rep.set("model.invariant_calls", float64(st.invCalls.Load())/passes, st.passes)
	rep.set("model.verify_cal_ns", float64(st.verNS.Load())/passes, st.passes)
	rep.set("model.verify_cal_calls", float64(st.verCalls.Load())/passes, st.passes)
	hooks := float64(st.invNS.Load() + st.verNS.Load())
	rep.set("sched.self_ratio", 1-ratio(hooks, float64(st.elapsed.Nanoseconds())*float64(runtime.NumCPU())), st.passes)
	return rep, tr.write(traceFile(rc))
}
