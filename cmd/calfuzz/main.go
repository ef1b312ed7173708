// Command calfuzz stress-tests the instrumented objects with randomized
// concurrent workloads and verifies every run end to end: the recorded
// CA-trace must be admitted by the object's specification, the captured
// history must agree with the trace (Definition 5), and the CAL checker
// must accept the history independently (Definition 6).
//
// Runs can additionally be subjected to fault injection (-chaos): seeded
// policies that delay, stall, bias and force CAS retries at the objects'
// labeled synchronization points; every verification must still pass,
// since chaos perturbs timing, never semantics. The per-run structural
// checks (spec admits the trace, history agrees with it) happen inline;
// the CAL checks for a target's runs are batched and fanned across a
// checker pool (-workers, default GOMAXPROCS). -timeout bounds each
// batch of CAL checks; a batch that exhausts it counts as UNKNOWN
// (exit 3), not as a violation.
//
// Usage:
//
//	calfuzz -iters 50 -seed 1 -object all
//	calfuzz -iters 20 -object exchanger -chaos havoc -workers 4
//	calfuzz -iters 10 -object pqueue -emit /tmp/histories
//
// -emit dumps every generated history to a directory in the interchange
// format, one file per run, so a sweep doubles as a corpus generator:
// the files replay with calcheck (any -engine) and feed the monitor/DFS
// cross-validation loop. -engine selects the checker engine for the
// batched CAL checks; the default auto routes unambiguous collection
// histories to the O(n log n) specialized monitors.
//
// -soak-stream N switches to the streaming soak: instead of batched
// checks, each fuzzed history is fed event-by-event through an online
// checker (calgo.NewStream, tuned by -stream-window and
// -stream-check-every), every other run gets one response corrupted,
// and every streaming verdict is cross-validated against the batch CAL
// verdict of the same history — Violation exactly where the batch says
// UNSAT, never on a history the batch accepts. The stream decides each
// object by its spec: msqueue, elimstack and pqueue runs go through a
// monitor stepper, which falls back to the exact DFS on the buffered
// prefix when it punts; the other objects run the windowed DFS re-check.
// -engine picks only the batch side of the comparison. With -emit the
// soak writes each streamed history, corruption included, as
// <object>-soak-<seed>.txt, so a slow or failing iteration replays with
// calcheck.
//
// Observability: -metrics-json aggregates the CAL checkers' counters
// across every batch into one JSON document, -trace streams sampled
// search events and dumps a flight-recorder ring when a run fails or is
// inconclusive, and -serve exposes the live ops endpoint (/metrics
// Prometheus exposition, /statusz live run status, /flightz, /runsz,
// and /debug/pprof/ for profiles). Diagnostics are structured log lines shaped
// by -log-level and -log-format. Run with -h for the exit-code legend.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"sync"

	"path/filepath"

	"calgo"
	"calgo/internal/cliflags"
)

func main() {
	os.Exit(run())
}

// errUnknown marks an inconclusive (budget-bound) verification; errUsage
// marks bad flags. Anything else is a real verification failure.
var (
	errUnknown = errors.New("verification inconclusive")
	errUsage   = errors.New("usage")
)

// fuzzExit maps a sweep outcome to the exit-code convention: 0 verified,
// 1 failed verification, 2 usage error, 3 inconclusive within budget.
func fuzzExit(err error, logger *slog.Logger) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errUnknown):
		logger.Warn("sweep inconclusive", "err", err)
		return 3
	case errors.Is(err, errUsage):
		logger.Error("bad flags", "err", err)
		return 2
	default:
		logger.Error("verification failed", "err", err)
		return 1
	}
}

func run() int {
	var (
		iters  = flag.Int("iters", 30, "iterations per object")
		seed   = flag.Int64("seed", 1, "base random seed")
		object = flag.String("object", "all", "object to fuzz: exchanger, elimstack, syncqueue, dualstack, dualqueue, msqueue, pqueue, snapshot, all")
		chaos  = flag.String("chaos", "none", "fault-injection policy: none, yield-storm, stall, cas-storm, bias, havoc, all")
		emit   = flag.String("emit", "", "dump every generated history to this directory in the interchange format (one file per run), for replay with calcheck")
		soak   = flag.Int("soak-stream", 0, "streaming soak: feed this many fuzzed histories per object through an online checker and cross-validate every verdict against the batch CAL check (0 = off)")
	)
	shared := cliflags.Register("calfuzz")
	shared.RegisterStream()
	flag.Parse()

	if err := shared.Start(); err != nil {
		shared.Logger().Error("startup failed", "err", err)
		return 2
	}
	defer shared.Close()

	// An interrupt (^C, SIGTERM) cancels the sweep between batches; the
	// partial -metrics-json/-report outputs still flush through Finish.
	ctx, stop := cliflags.SignalContext()
	defer stop()

	var err error
	if *emit != "" {
		if err = os.MkdirAll(*emit, 0o755); err != nil {
			err = fmt.Errorf("%w: creating -emit directory: %v", errUsage, err)
		}
	}
	if err == nil && *soak > 0 {
		err = soakStream(ctx, *soak, *seed, *object, *emit, shared)
	} else if err == nil {
		err = sweep(ctx, *iters, *seed, *object, *chaos, *emit, shared)
	}
	exit := fuzzExit(err, shared.Logger())
	if exit == 1 || exit == 3 {
		shared.DumpFlight()
	}
	if err := shared.Finish(exit); err != nil {
		shared.Logger().Error("flushing outputs", "err", err)
		return 2
	}
	return exit
}

func sweep(ctx context.Context, iters int, seed int64, object, chaos, emit string, shared *cliflags.Set) error {
	policies := []string{chaos}
	if chaos == "all" {
		policies = calgo.ChaosPolicyNames()
	} else if _, ok := calgo.ChaosPolicies()[chaos]; !ok {
		return fmt.Errorf("%w: unknown chaos policy %q", errUsage, chaos)
	}
	targets := []string{"exchanger", "elimstack", "syncqueue", "dualstack", "dualqueue", "msqueue", "pqueue", "snapshot"}
	if object != "all" {
		targets = []string{object}
	}
	for _, target := range targets {
		fuzz, ok := fuzzers[target]
		if !ok {
			return fmt.Errorf("%w: unknown object %q", errUsage, target)
		}
		for _, policy := range policies {
			runs := make([]pending, 0, iters)
			for i := 0; i < iters; i++ {
				// A fresh policy instance per run: stateful policies keep
				// per-thread state valid only under one injector's lock.
				inj := calgo.NewChaosInjector(calgo.ChaosPolicies()[policy], seed+int64(i))
				rng := rand.New(rand.NewSource(seed + int64(i)))
				run, err := fuzz(rng, inj)
				if err != nil {
					return fmt.Errorf("%s iteration %d (chaos %s, seed %d): %w",
						target, i, policy, seed+int64(i), err)
				}
				run.iter, run.seed = i, seed+int64(i)
				if err := emitHistory(emit, fmt.Sprintf("%s-%s-%d.txt", target, policy, run.seed), run.h); err != nil {
					return err
				}
				runs = append(runs, run)
			}
			if err := checkBatch(ctx, runs, target, policy, shared); err != nil {
				return err
			}
			if shared.WantsRuns() {
				shared.AddRun(calgo.RunReport{
					Name:    target + "/" + policy,
					Verdict: "OK",
					Detail:  fmt.Sprintf("%d randomized runs verified", iters),
				})
			}
			if policy == "none" {
				fmt.Printf("✓ %-10s %d randomized runs verified\n", target, iters)
			} else {
				fmt.Printf("✓ %-10s %d randomized runs verified under chaos policy %s\n", target, iters, policy)
			}
		}
	}
	return nil
}

// emitHistory writes h as dir/name in the interchange format, for replay
// with calcheck; an empty dir writes nothing.
func emitHistory(dir, name string, h calgo.History) error {
	if dir == "" {
		return nil
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(calgo.FormatHistory(h)), 0o644); err != nil {
		return fmt.Errorf("writing -emit history: %w", err)
	}
	return nil
}

// soakStream is the -soak-stream mode: each fuzzed history is replayed
// through calgo.NewStream one event at a time and the streaming verdict
// is cross-validated against the batch CAL verdict of the identical
// history. Every other run has one removal response corrupted so the
// soak exercises both directions of the agreement contract. -emit writes
// each streamed history, corruption included, as <object>-soak-<seed>.txt.
func soakStream(ctx context.Context, iters int, seed int64, object, emit string, shared *cliflags.Set) error {
	targets := []string{"exchanger", "elimstack", "syncqueue", "dualstack", "dualqueue", "msqueue", "pqueue", "snapshot"}
	if object != "all" {
		targets = []string{object}
	}
	none := calgo.ChaosPolicies()["none"]
	for _, target := range targets {
		fuzz, ok := fuzzers[target]
		if !ok {
			return fmt.Errorf("%w: unknown object %q", errUsage, target)
		}
		corrupted := 0
		for i := 0; i < iters; i++ {
			if ctx.Err() != nil {
				return fmt.Errorf("%w: streaming soak interrupted by signal", errUnknown)
			}
			inj := calgo.NewChaosInjector(none, seed+int64(i))
			rng := rand.New(rand.NewSource(seed + int64(i)))
			run, err := fuzz(rng, inj)
			if err != nil {
				return fmt.Errorf("%s soak iteration %d (seed %d): %w", target, i, seed+int64(i), err)
			}
			h := run.h
			if i%2 == 1 {
				if bad, ok := corruptRemoval(h); ok {
					h = bad
					corrupted++
				}
			}
			if err := emitHistory(emit, fmt.Sprintf("%s-soak-%d.txt", target, seed+int64(i)), h); err != nil {
				return err
			}
			label := fmt.Sprintf("%s soak iteration %d (seed %d)", target, i, seed+int64(i))
			if err := crossValidateStream(ctx, label, run.sp, h, shared); err != nil {
				return err
			}
		}
		if shared.WantsRuns() {
			shared.AddRun(calgo.RunReport{
				Name:    target + "/soak-stream",
				Verdict: "OK",
				Detail:  fmt.Sprintf("%d streamed runs cross-validated (%d with injected defects)", iters, corrupted),
			})
		}
		fmt.Printf("✓ %-10s %d streamed runs cross-validated against batch CAL (%d with injected defects)\n",
			target, iters, corrupted)
	}
	return nil
}

// corruptRemoval flips the last pair-returning response to a value no
// invocation ever supplied, yielding a history the batch checker is
// expected to reject. Histories without such a response (possible for
// tiny runs) are streamed pristine.
func corruptRemoval(h calgo.History) (calgo.History, bool) {
	for i := len(h) - 1; i >= 0; i-- {
		ev := h[i]
		if !ev.IsRes() || ev.Ret.Kind != calgo.KindPair {
			continue
		}
		out := append(calgo.History(nil), h...)
		out[i].Ret = calgo.Pair(true, 987_654_321)
		return out, true
	}
	return h, false
}

// crossValidateStream pins the streaming/batch agreement contract on one
// history: VIOLATION-at-event-k exactly where the batch verdict is
// UNSAT, Sat-so-far only where it is SAT; a Degraded stream or an
// UNKNOWN batch check waives the comparison as inconclusive. -timeout
// and ctx bound the stream's re-checks as they bound the batch check.
func crossValidateStream(ctx context.Context, label string, sp calgo.Spec, h calgo.History, shared *cliflags.Set) error {
	sctx, scancel := shared.WithTimeout(ctx)
	defer scancel()
	opts := append(shared.StreamOptions(), calgo.WithStreamContext(sctx))
	st, err := calgo.NewStream(sp, append(opts, shared.Options()...)...)
	if err != nil {
		return fmt.Errorf("%s: opening stream: %w", label, err)
	}
	if err := st.FeedAll(h); err != nil {
		st.Close()
		return fmt.Errorf("%s: feeding stream: %w", label, err)
	}
	sv := st.Close()

	cctx, cancel := shared.WithTimeout(ctx)
	defer cancel()
	br, err := calgo.CAL(cctx, h, sp, append(shared.Options(), calgo.WithEngine(shared.Engine()))...)
	if err != nil {
		return fmt.Errorf("%s: batch cross-check: %w", label, err)
	}
	switch {
	case sv.Status == calgo.StreamDegraded:
		return fmt.Errorf("%s: %w: stream degraded: %s", label, errUnknown, sv.Reason)
	case br.Verdict == calgo.VerdictUnknown:
		return fmt.Errorf("%s: %w: batch cross-check inconclusive: %s", label, errUnknown, br.Unknown.Reason)
	case (sv.Status == calgo.StreamViolation) != (br.Verdict == calgo.VerdictUnsat):
		return fmt.Errorf("%s: streaming/batch disagreement: stream says %s, batch says %s",
			label, sv, calgo.VerdictWord(br.Verdict))
	}
	return nil
}

// pending is one fuzz run whose structural checks passed and whose CAL
// check is deferred to the target's batch.
type pending struct {
	h    calgo.History
	sp   calgo.Spec
	iter int
	seed int64
}

// checkBatch fans the deferred CAL checks of one target/policy sweep
// across a checker pool, grouping runs by their (comparable) spec value
// so each group shares one reusable Checker — the same construction path
// (NewChecker + CheckMany) the library's batch entry point and the chaos
// soak use. -timeout bounds each group's batch of checks.
func checkBatch(parent context.Context, runs []pending, target, policy string, shared *cliflags.Set) error {
	groups := make(map[calgo.Spec][]int)
	var order []calgo.Spec
	for i, r := range runs {
		if _, seen := groups[r.sp]; !seen {
			order = append(order, r.sp)
		}
		groups[r.sp] = append(groups[r.sp], i)
	}
	for _, sp := range order {
		idx := groups[sp]
		histories := make([]calgo.History, len(idx))
		for j, i := range idx {
			histories[j] = runs[i].h
		}
		ctx, cancel := shared.WithTimeout(parent)
		defer cancel()
		c, err := calgo.NewChecker(sp, append(shared.Options(), calgo.WithEngine(shared.Engine()))...)
		if err != nil {
			return err
		}
		results, err := c.CheckMany(ctx, histories)
		if err != nil {
			if errors.Is(parent.Err(), context.Canceled) {
				return fmt.Errorf("%w: %s/%s interrupted by signal", errUnknown, target, policy)
			}
			return err
		}
		for j, r := range results {
			run := runs[idx[j]]
			label := fmt.Sprintf("%s iteration %d (chaos %s, seed %d)", target, run.iter, policy, run.seed)
			switch r.Verdict {
			case calgo.VerdictUnknown:
				explainFailure(shared, label, r)
				return fmt.Errorf("%s: %w: %s (%s)", label, errUnknown, r.Unknown.Reason, r.Unknown.Frontier)
			case calgo.VerdictUnsat:
				explainFailure(shared, label, r)
				return fmt.Errorf("%s: CAL checker rejected the history: %s", label, r.Reason)
			}
		}
	}
	return nil
}

// explainFailure routes a failed or inconclusive run's evidence through
// the shared explainability sinks (-explain, -dot, -report). A fuzz
// failure is exactly when the reproduction evidence matters, so all three
// fire on the first bad result.
func explainFailure(shared *cliflags.Set, label string, r calgo.Result) {
	if r.Explanation == nil {
		return
	}
	if shared.Explain() {
		fmt.Print(calgo.RenderTimeline(r.Explanation, calgo.TimelineOptions{}))
	}
	if err := shared.WriteDOT(calgo.RenderDOT(r.Explanation)); err != nil {
		shared.Logger().Error("writing DOT", "err", err)
	}
	if shared.WantsRuns() {
		detail := r.Reason
		if r.Verdict == calgo.VerdictUnknown {
			detail = fmt.Sprintf("%s (%s)", r.Unknown.Reason, r.Unknown.Frontier)
		}
		shared.AddRun(calgo.RunReport{
			Name:     label,
			Verdict:  calgo.VerdictWord(r.Verdict),
			Detail:   detail,
			Timeline: calgo.RenderTimeline(r.Explanation, calgo.TimelineOptions{ASCII: true}),
			DOT:      calgo.RenderDOT(r.Explanation),
		})
	}
}

var fuzzers = map[string]func(*rand.Rand, *calgo.ChaosInjector) (pending, error){
	"exchanger": fuzzExchanger,
	"elimstack": fuzzElimStack,
	"syncqueue": fuzzSyncQueue,
	"dualstack": fuzzDualStack,
	"dualqueue": fuzzDualQueue,
	"msqueue":   fuzzMSQueue,
	"pqueue":    fuzzPQueue,
	"snapshot":  fuzzSnapshot,
}

// fuzzPQueue drives the mutex-guarded min-heap with distinct priorities,
// so the captured histories are unambiguous and (under -engine auto)
// exercise the specialized pqueue monitor against a live object.
func fuzzPQueue(rng *rand.Rand, inj *calgo.ChaosInjector) (pending, error) {
	rec := calgo.NewBoundedRecorder(1 << 14)
	pq := calgo.NewPQueueHeap("P", calgo.PQueueHeapWithRecorder(rec), calgo.PQueueHeapWithChaos(inj))
	workers := rng.Intn(4) + 2
	per := rng.Intn(16) + 4
	var cap calgo.Capture
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := calgo.ThreadID(w + 1)
			for i := 0; i < per; i++ {
				v := int64(w*10_000 + i)
				if i%2 == 0 {
					cap.Inv(tid, "P", calgo.MethodInsert, calgo.Int(v))
					pq.Insert(tid, v)
					cap.Res(tid, "P", calgo.MethodInsert, calgo.Bool(true))
				} else {
					cap.Inv(tid, "P", calgo.MethodExtractMin, calgo.Unit())
					ok, got := pq.ExtractMin(tid)
					cap.Res(tid, "P", calgo.MethodExtractMin, calgo.Pair(ok, got))
				}
			}
		}(w)
	}
	wg.Wait()
	tr, err := checkedView(rec, "P")
	if err != nil {
		return pending{}, err
	}
	return verify(cap.History(), tr, calgo.NewPQueueSpec("P"))
}

func fuzzExchanger(rng *rand.Rand, inj *calgo.ChaosInjector) (pending, error) {
	rec := calgo.NewBoundedRecorder(1 << 14)
	ex := calgo.NewExchanger("E",
		calgo.ExchangerWithRecorder(rec),
		calgo.ExchangerWithWaitPolicy(calgo.SpinWait(rng.Intn(128)+1)),
		calgo.ExchangerWithChaos(inj),
	)
	workers := rng.Intn(6) + 2
	per := rng.Intn(20) + 5
	var cap calgo.Capture
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := calgo.ThreadID(w + 1)
			for i := 0; i < per; i++ {
				v := int64(w*10_000 + i)
				cap.Inv(tid, "E", calgo.MethodExchange, calgo.Int(v))
				ok, out := ex.Exchange(tid, v)
				cap.Res(tid, "E", calgo.MethodExchange, calgo.Pair(ok, out))
			}
		}(w)
	}
	wg.Wait()
	tr, err := checkedView(rec, "E")
	if err != nil {
		return pending{}, err
	}
	return verify(cap.History(), tr, calgo.NewExchangerSpec("E"))
}

func fuzzElimStack(rng *rand.Rand, inj *calgo.ChaosInjector) (pending, error) {
	rec := calgo.NewBoundedRecorder(1 << 14)
	es, err := calgo.NewElimStack("ES",
		calgo.ElimStackWithRecorder(rec),
		calgo.ElimStackWithSlots(rng.Intn(4)+1),
		calgo.ElimStackWithWaitPolicy(calgo.SpinWait(rng.Intn(64)+1)),
		calgo.ElimStackWithChaos(inj),
	)
	if err != nil {
		return pending{}, err
	}
	pairs := rng.Intn(3) + 1
	per := rng.Intn(15) + 5
	var cap calgo.Capture
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			tid := calgo.ThreadID(2*p + 1)
			for i := 0; i < per; i++ {
				v := int64(p*10_000 + i)
				cap.Inv(tid, "ES", calgo.MethodPush, calgo.Int(v))
				if err := es.Push(tid, v); err != nil {
					panic(err)
				}
				cap.Res(tid, "ES", calgo.MethodPush, calgo.Bool(true))
			}
		}(p)
		go func(p int) {
			defer wg.Done()
			tid := calgo.ThreadID(2*p + 2)
			for i := 0; i < per; i++ {
				cap.Inv(tid, "ES", calgo.MethodPop, calgo.Unit())
				v := es.Pop(tid)
				cap.Res(tid, "ES", calgo.MethodPop, calgo.Pair(true, v))
			}
		}(p)
	}
	wg.Wait()
	tr, err := checkedView(rec, "ES")
	if err != nil {
		return pending{}, err
	}
	return verify(cap.History(), tr, calgo.NewStackSpec("ES"))
}

func fuzzSyncQueue(rng *rand.Rand, inj *calgo.ChaosInjector) (pending, error) {
	rec := calgo.NewBoundedRecorder(1 << 14)
	q := calgo.NewSyncQueue("SQ",
		calgo.SyncQueueWithRecorder(rec),
		calgo.SyncQueueWithWaitPolicy(calgo.SpinWait(rng.Intn(64)+1)),
		calgo.SyncQueueWithChaos(inj),
	)
	pairs := rng.Intn(3) + 1
	per := rng.Intn(12) + 4
	var cap calgo.Capture
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			tid := calgo.ThreadID(2*p + 1)
			for i := 0; i < per; i++ {
				v := int64(p*10_000 + i)
				cap.Inv(tid, "SQ", calgo.MethodPut, calgo.Int(v))
				q.Put(tid, v)
				cap.Res(tid, "SQ", calgo.MethodPut, calgo.Bool(true))
			}
		}(p)
		go func(p int) {
			defer wg.Done()
			tid := calgo.ThreadID(2*p + 2)
			for i := 0; i < per; i++ {
				cap.Inv(tid, "SQ", calgo.MethodTake, calgo.Unit())
				v := q.Take(tid)
				cap.Res(tid, "SQ", calgo.MethodTake, calgo.Pair(true, v))
			}
		}(p)
	}
	wg.Wait()
	tr, err := checkedView(rec, "SQ")
	if err != nil {
		return pending{}, err
	}
	return verify(cap.History(), tr, calgo.NewSyncQueueSpec("SQ"))
}

// verify performs the per-run structural checks (spec admits the
// recorded trace; history agrees with it, Definition 5) and defers the
// CAL check (Definition 6) to the target's batch.
func verify(h calgo.History, tr calgo.Trace, sp calgo.Spec) (pending, error) {
	if _, err := calgo.SpecAccepts(sp, tr); err != nil {
		return pending{}, fmt.Errorf("recorded trace rejected by %s: %w", sp.Name(), err)
	}
	if err := calgo.Agrees(h, tr); err != nil {
		return pending{}, fmt.Errorf("history does not agree with recorded trace: %w", err)
	}
	return pending{h: h, sp: sp}, nil
}

// checkedView snapshots the recorder's view of o after verifying the trace
// was not truncated; a bounded recorder that overflowed yields no evidence.
func checkedView(rec *calgo.Recorder, o calgo.ObjectID) (calgo.Trace, error) {
	if err := rec.Err(); err != nil {
		return nil, err
	}
	return rec.View(o), nil
}

func fuzzDualStack(rng *rand.Rand, inj *calgo.ChaosInjector) (pending, error) {
	rec := calgo.NewBoundedRecorder(1 << 14)
	s := calgo.NewDualStack("DS",
		calgo.DualStackWithRecorder(rec),
		calgo.DualStackWithWaitPolicy(calgo.SpinWait(rng.Intn(8)+1)),
		calgo.DualStackWithChaos(inj),
	)
	pairs := rng.Intn(3) + 1
	per := rng.Intn(12) + 4
	var cap calgo.Capture
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			tid := calgo.ThreadID(2*p + 1)
			for i := 0; i < per; i++ {
				v := int64(p*10_000 + i)
				cap.Inv(tid, "DS", calgo.MethodPush, calgo.Int(v))
				s.Push(tid, v)
				cap.Res(tid, "DS", calgo.MethodPush, calgo.Bool(true))
			}
		}(p)
		go func(p int) {
			defer wg.Done()
			tid := calgo.ThreadID(2*p + 2)
			for i := 0; i < per; i++ {
				cap.Inv(tid, "DS", calgo.MethodPop, calgo.Unit())
				v := s.Pop(tid)
				cap.Res(tid, "DS", calgo.MethodPop, calgo.Pair(true, v))
			}
		}(p)
	}
	wg.Wait()
	tr, err := checkedView(rec, "DS")
	if err != nil {
		return pending{}, err
	}
	return verify(cap.History(), tr, calgo.NewDualStackSpec("DS"))
}

func fuzzMSQueue(rng *rand.Rand, inj *calgo.ChaosInjector) (pending, error) {
	rec := calgo.NewBoundedRecorder(1 << 14)
	q := calgo.NewMSQueue("Q", calgo.MSQueueWithRecorder(rec), calgo.MSQueueWithChaos(inj))
	workers := rng.Intn(4) + 2
	per := rng.Intn(16) + 4
	var cap calgo.Capture
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := calgo.ThreadID(w + 1)
			for i := 0; i < per; i++ {
				v := int64(w*10_000 + i)
				if i%2 == 0 {
					cap.Inv(tid, "Q", calgo.MethodEnq, calgo.Int(v))
					q.Enq(tid, v)
					cap.Res(tid, "Q", calgo.MethodEnq, calgo.Bool(true))
				} else {
					cap.Inv(tid, "Q", calgo.MethodDeq, calgo.Unit())
					ok, got := q.Deq(tid)
					cap.Res(tid, "Q", calgo.MethodDeq, calgo.Pair(ok, got))
				}
			}
		}(w)
	}
	wg.Wait()
	tr, err := checkedView(rec, "Q")
	if err != nil {
		return pending{}, err
	}
	return verify(cap.History(), tr, calgo.NewQueueSpec("Q"))
}

func fuzzSnapshot(rng *rand.Rand, inj *calgo.ChaosInjector) (pending, error) {
	n := rng.Intn(4) + 2
	s, err := calgo.NewImmediateSnapshot("IS", n, calgo.SnapshotWithChaos(inj))
	if err != nil {
		return pending{}, err
	}
	var cap calgo.Capture
	results := make([]calgo.SnapshotResult, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tid := calgo.ThreadID(p + 1)
			v := int64(100 + p)
			cap.Inv(tid, "IS", calgo.MethodUpdate, calgo.Int(v))
			view, err := s.Update(p, tid, v)
			if err != nil {
				panic(err) // slots are distinct by construction
			}
			cap.Res(tid, "IS", calgo.MethodUpdate, calgo.Pair(true, int64(len(view))))
			results[p] = calgo.SnapshotResult{Thread: tid, Value: v, View: view}
		}(p)
	}
	wg.Wait()
	tr, err := calgo.DeriveSnapshotTrace("IS", results)
	if err != nil {
		return pending{}, err
	}
	return verify(cap.History(), tr, calgo.NewSnapshotSpec("IS", n))
}

func fuzzDualQueue(rng *rand.Rand, inj *calgo.ChaosInjector) (pending, error) {
	rec := calgo.NewBoundedRecorder(1 << 14)
	q := calgo.NewDualQueue("DQ",
		calgo.DualQueueWithRecorder(rec),
		calgo.DualQueueWithWaitPolicy(calgo.SpinWait(rng.Intn(8)+1)),
		calgo.DualQueueWithChaos(inj),
	)
	pairs := rng.Intn(3) + 1
	per := rng.Intn(12) + 4
	var cap calgo.Capture
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		go func(p int) {
			defer wg.Done()
			tid := calgo.ThreadID(2*p + 1)
			for i := 0; i < per; i++ {
				v := int64(p*10_000 + i)
				cap.Inv(tid, "DQ", calgo.MethodEnq, calgo.Int(v))
				q.Enq(tid, v)
				cap.Res(tid, "DQ", calgo.MethodEnq, calgo.Bool(true))
			}
		}(p)
		go func(p int) {
			defer wg.Done()
			tid := calgo.ThreadID(2*p + 2)
			for i := 0; i < per; i++ {
				cap.Inv(tid, "DQ", calgo.MethodDeq, calgo.Unit())
				v := q.Deq(tid)
				cap.Res(tid, "DQ", calgo.MethodDeq, calgo.Pair(true, v))
			}
		}(p)
	}
	wg.Wait()
	tr, err := checkedView(rec, "DQ")
	if err != nil {
		return pending{}, err
	}
	return verify(cap.History(), tr, calgo.NewDualQueueSpec("DQ"))
}
