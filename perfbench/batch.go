package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/jobs"
	"calgo/internal/monitor"
)

// Size guards of the batch corpus. No input that can reach the DFS is
// large enough for the O(n²) real-time order or the 4M-state budget to
// blow up: one-duplicate queue and stack histories exhaust the budget
// near 1,000 operations, so they stop at 300. Stack histories stay at or
// below 8,000 events on two threads and carry no planted defect, because
// the greedy stack monitor gives up on more concurrent or defective ones
// (about half of four-thread histories at 4,000 operations) and the
// fallback's real-time matrix would need gigabytes at 100k events. The
// per-history limit is the checker's state budget, not wall time, so
// failures repeat exactly from the seed.
const (
	batchBig, batchStack, batchAmbiguous = 60, 80, 120

	bigMinOps, bigMaxOps          = 5_000, 50_000 // 10k–100k events
	stackMinOps, stackMaxOps      = 1_000, 4_000  // 2k–8k events
	ambigMinOps                   = 100
	ambigMaxQueueOps, ambigMaxOps = 300, 1_000
)

// batchSpecs are the specifications of the batch corpus.
var batchSpecs = []string{"queue", "stack", "set", "pqueue"}

// newBatchCheckers builds one engine-auto checker per corpus spec, what
// `calcheck -engine auto` sets up before reading its first input.
func newBatchCheckers() (map[string]*check.Checker, error) {
	out := map[string]*check.Checker{}
	for _, name := range batchSpecs {
		sp, err := jobs.SpecByName(name, collectionObject[name], 0)
		if err != nil {
			return nil, err
		}
		c, err := check.NewChecker(sp, check.WithEngine(check.EngineAuto))
		if err != nil {
			return nil, err
		}
		out[name] = c
	}
	return out, nil
}

// batchCorpus generates the seeded corpus: long unambiguous collection
// histories for the monitors, mid-size stack histories, and small
// histories with exactly one repeated value that fall back to the DFS.
// Kinds, sizes and the Unsat share are stratified, so every seed yields
// the same mix and only the interleavings and values differ.
func batchCorpus(seed int64) []Input {
	r := rand.New(rand.NewSource(seed))
	var out []Input
	for i := 0; i < batchBig; i++ {
		kind := []string{"queue", "set", "pqueue"}[i%3]
		ops := stratified(r, i, batchBig, bigMinOps, bigMaxOps)
		sh := shape{kind: kind, ops: ops, threads: 2 + i%7, dupAt: -1, defectAt: -1}
		if i%5 == 0 {
			sh.defectAt = ops/2 + r.Intn(ops-ops/2)
		}
		out = append(out, collectionInput(r, fmt.Sprintf("big-%d", i), sh))
	}
	for i := 0; i < batchStack; i++ {
		ops := stratified(r, i, batchStack, stackMinOps, stackMaxOps)
		sh := shape{kind: "stack", ops: ops, threads: 2, dupAt: -1, defectAt: -1}
		out = append(out, collectionInput(r, fmt.Sprintf("stack-%d", i), sh))
	}
	for i := 0; i < batchAmbiguous; i++ {
		kind := batchSpecs[i%len(batchSpecs)]
		hi := ambigMaxOps
		if kind == "queue" || kind == "stack" {
			hi = ambigMaxQueueOps
		}
		ops := stratified(r, i, batchAmbiguous, ambigMinOps, hi)
		sh := shape{kind: kind, ops: ops, threads: 3 + i%3, dupAt: r.Intn(ops / 2), defectAt: -1, orderly: true}
		if i%5 == 0 {
			// The DFS proves Unsat by exhausting every linearization of
			// the prefix before the defect; a defect among the first ten
			// operations keeps that prefix small.
			sh.defectAt = r.Intn(10)
		}
		out = append(out, collectionInput(r, fmt.Sprintf("ambiguous-%d", i), sh))
	}
	return out
}

// batchStats accumulates one phase of the batch workload.
type batchStats struct {
	mu        sync.Mutex
	latencyMS []float64
	events    int64
	attempted int64
	failed    int64
	wrong     error
	elapsed   time.Duration
	passes    *windows
	complete  int         // corpus passes checked in full
	passMS    [][]float64 // latencies of each pass

	// Traced phase only.
	parseNS, monitorNS             float64
	monAttempts, monDecided        int64
	monIneligible, monInconclusive int64
	searchMS                       []float64
	states, memoHits, unknown      int64
	dfsHistories                   map[int]bool
}

// checkOne decides one history the way `calcheck -engine auto` does. With
// a tracer it makes the same decision in visible steps: parse, the
// monitor, and on a punt the DFS, each under its own span.
func checkOne(in Input, idx int, checkers map[string]*check.Checker, dfs map[string]*check.Checker, tr *tracer, st *batchStats, pass int) {
	start := time.Now()
	root := tr.begin("batch.history", 0, 0)
	ps := tr.begin("history.parse", root.id(), root.req())
	h, err := history.ParseFile(in.Name, in.Text)
	parseDur := ps.end()
	if err != nil {
		st.fail(fmt.Errorf("%s: %v", in.Name, err))
		return
	}
	var res check.Result
	var mres monitor.Result
	traced := tr != nil
	var monDur, searchDur time.Duration
	decidedByMonitor := false
	if traced {
		sp := checkers[in.Spec].Spec()
		ms := tr.begin("monitor.check", root.id(), root.req())
		mres = monitor.Check(h, sp)
		monDur = ms.end()
		switch mres.Outcome {
		case monitor.OK:
			res = check.Result{Verdict: check.Sat, OK: true}
			decidedByMonitor = true
		case monitor.Violation:
			res = check.Result{Verdict: check.Unsat}
			decidedByMonitor = true
		default:
			ss := tr.begin("check.search", root.id(), root.req())
			res, err = dfs[in.Spec].Check(context.Background(), h)
			searchDur = ss.end()
		}
	} else {
		res, err = checkers[in.Spec].Check(context.Background(), h)
	}
	root.end()
	took := time.Since(start)
	if err != nil {
		st.fail(fmt.Errorf("%s: %v", in.Name, err))
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	st.events += int64(len(h))
	ms := float64(took.Nanoseconds()) / 1e6
	st.latencyMS = append(st.latencyMS, ms)
	for len(st.passMS) <= pass {
		st.passMS = append(st.passMS, nil)
	}
	st.passMS[pass] = append(st.passMS[pass], ms)
	switch {
	case res.Verdict == check.Unknown:
		st.failed++
	case res.OK != in.Sat && st.wrong == nil:
		st.wrong = fmt.Errorf("%w: %s (%s, %d events) decided %s, constructed %v", errWrong, in.Name, in.Spec, in.Events, res.Verdict, in.Sat)
	}
	if !traced {
		return
	}
	st.parseNS += float64(parseDur.Nanoseconds())
	st.monitorNS += float64(monDur.Nanoseconds())
	st.monAttempts++
	switch {
	case decidedByMonitor:
		st.monDecided++
	case mres.Outcome == monitor.Inconclusive:
		st.monInconclusive++
	default:
		st.monIneligible++
	}
	if !decidedByMonitor {
		st.searchMS = append(st.searchMS, float64(searchDur.Nanoseconds())/1e6)
		st.states += int64(res.States)
		st.memoHits += int64(res.MemoHits)
		if res.Verdict == check.Unknown {
			st.unknown++
		}
		st.dfsHistories[idx] = true
	}
}

func (st *batchStats) fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wrong == nil {
		st.wrong = err
	}
}

// batchOrder is the order the corpus is checked in, pass after pass,
// more passes than a window can use. It is the same for every seed, so
// which histories meet on the two workers does not vary between runs.
func batchOrder(n int) []int {
	perm := rand.New(rand.NewSource(1)).Perm(n)
	var order []int
	for pass := 0; pass < 64; pass++ {
		order = append(order, perm...)
	}
	return order
}

// batchPhase checks corpus items in order on a pool of nproc workers. A
// worker starts no item after the deadline (none for a zero deadline).
// It returns the stats and how many items of order were checked.
func batchPhase(corpus []Input, order []int, deadline time.Time, tr *tracer) (*batchStats, int, error) {
	checkers, err := newBatchCheckers()
	if err != nil {
		return nil, 0, err
	}
	dfs := map[string]*check.Checker{}
	for name, c := range checkers {
		if dfs[name], err = check.NewChecker(c.Spec(), check.WithEngine(check.EngineDFS)); err != nil {
			return nil, 0, err
		}
	}
	st := &batchStats{dfsHistories: map[int]bool{}, passes: newWindows()}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline.IsZero() || time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				in := corpus[order[i]]
				t0 := time.Now()
				checkOne(in, order[i], checkers, dfs, tr, st, i/len(corpus))
				st.passes.add(i/len(corpus), float64(in.Events), t0, time.Now())
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	claimed := min(int(next.Load()), len(order))
	st.complete = claimed / len(corpus)
	return st, claimed, st.wrong
}

// rate is the median events per second over the complete corpus passes.
func (st *batchStats) rate() float64 { return st.passes.median(st.complete) }

func runBatch(rc *runCtx) (*report, error) {
	rep := newReport()
	setup, err := probeSetup("batch")
	if err != nil {
		return nil, err
	}
	corpus := batchCorpus(rc.seed)
	order := batchOrder(len(corpus))
	runtime.GC()
	if !rc.trace {
		rss := rssWindows("self")
		st, _, err := batchPhase(corpus, order, time.Now().Add(rc.duration()), nil)
		peak := rss()
		if err != nil {
			return nil, err
		}
		rep.attempted, rep.failed = st.attempted, st.failed
		rep.set("setup_s", setup, setupProbes)
		rep.set("throughput_per_s", st.rate(), st.complete)
		rep.alias["throughput_per_s"] = "events_per_s, median over corpus passes"
		setLatency(rep, st.latencyMS)
		// Every pass checks the same histories, so the median of the
		// complete passes' medians discounts a disturbance during one.
		var p50s []float64
		for _, ms := range st.passMS[:min(max(st.complete, 1), len(st.passMS))] {
			p50s = append(p50s, percentile(ms, 0.5))
		}
		rep.set("latency_p50_ms", percentile(p50s, 0.5), len(st.latencyMS))
		rep.alias["latency_p50_ms"] = "per history, median of pass medians"
		rep.set("peak_rss_mb", peak, int(rc.duration()/rssWindowLen))
		rep.set("ok_ratio", 1-ratio(float64(st.failed), float64(st.attempted)), int(st.attempted))
		return rep, nil
	}
	tr := newTracer()
	st, n, err := batchPhase(corpus, order, time.Now().Add(rc.duration()/2), tr)
	if err != nil {
		return nil, err
	}
	plain, _, err := batchPhase(corpus, order[:n], time.Time{}, nil)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = st.attempted, st.failed
	rep.set("tracing.overhead_pct", overheadPct(st.elapsed, plain.elapsed), int(st.attempted))
	rep.set("history.parse_ns_per_event", ratio(st.parseNS, float64(st.events)), int(st.attempted))
	rep.set("monitor.ns_per_event", ratio(st.monitorNS, float64(st.events)), int(st.monAttempts))
	rep.set("monitor.decided_ratio", ratio(float64(st.monDecided), float64(st.monAttempts)), int(st.monAttempts))
	rep.set("monitor.ineligible", float64(st.monIneligible), int(st.monAttempts))
	rep.set("monitor.inconclusive", float64(st.monInconclusive), int(st.monAttempts))
	rep.set("check.search_ms_p50", percentile(st.searchMS, 0.5), len(st.searchMS))
	rep.set("check.search_ms_p99", percentile(st.searchMS, 0.99), len(st.searchMS))
	rep.set("check.states_per_s", ratio(float64(st.states), sum(st.searchMS)/1e3), len(st.searchMS))
	rep.set("check.memo_hit_ratio", ratio(float64(st.memoHits), float64(st.memoHits+st.states)), len(st.searchMS))
	rep.set("check.unknown", float64(st.unknown), len(st.searchMS))
	prepMS, prepMB := measurePrep(corpus, st.dfsHistories)
	rep.set("history.prep_ms", prepMS, len(st.dfsHistories))
	rep.set("history.prep_mb", prepMB, len(st.dfsHistories))
	return rep, tr.write(traceFile(rc))
}

// measurePrep times the DFS's preparation, the real-time order over the
// history's operations, on each history that reached the DFS, one at a
// time so that the allocation count is this call's alone. It returns the
// mean time in ms and the largest allocation in MB.
func measurePrep(corpus []Input, idx map[int]bool) (float64, float64) {
	var totalMS, maxMB float64
	for i := range idx {
		h, err := history.ParseFile(corpus[i].Name, corpus[i].Text)
		if err != nil {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rt := history.RTOrder(h.Operations())
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(rt)
		totalMS += float64(took.Nanoseconds()) / 1e6
		maxMB = max(maxMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
	return ratio(totalMS, float64(len(idx))), maxMB
}

// setLatency reports the median and p99 of samples in ms.
func setLatency(rep *report, ms []float64) {
	rep.set("latency_p50_ms", percentile(ms, 0.5), len(ms))
	rep.set("latency_p99_ms", percentile(ms, 0.99), len(ms))
	if n := tailSamples(len(ms), 0.99); n < 10 {
		fmt.Printf("warning: only %d samples beyond p99\n", n)
	}
}

// overheadPct is how much longer the traced phase took than an untraced
// phase doing the same work.
func overheadPct(traced, plain time.Duration) float64 {
	return (ratio(traced.Seconds(), plain.Seconds()) - 1) * 100
}

func traceFile(rc *runCtx) string {
	return fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", rc.workload, rc.seed)
}
