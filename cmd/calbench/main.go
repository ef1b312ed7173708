// Command calbench regenerates the performance tables of EXPERIMENTS.md:
// throughput sweeps over goroutine counts comparing the elimination stack
// against the retrying Treiber stack and a lock-based stack (the
// motivating claim of Hendler et al. [10]), the CAS exchanger against a
// lock-based exchanger and an unbuffered Go channel, the synchronous
// queue, and the elimination-array width ablation.
//
// Usage:
//
//	calbench                             # all tables, default settings
//	calbench -table stacks -dur 2s       # one table, longer runs
//	calbench -json BENCH_2026-08-06.json # also write machine-readable tables
//
// With -json the sweep tables are additionally written to the given
// path as a JSON document (see EXPERIMENTS.md for the schema), so the
// perf trajectory accumulates as BENCH_<date>.json files.
//
// With -compare the run's rates are diffed cell-by-cell against a
// committed baseline — a BENCH_*.json document, or a run-store
// directory whose newest bench record (by generation time) is used;
// -gate N turns a worse-than-N% regression in any comparable cell into
// exit 1, and -repeat M measures each table M times keeping each
// cell's best rate, so one noisy scheduler stall cannot fail the gate
// (min-of-N noise floor; see EXPERIMENTS.md).
// -auto DIR does the whole bookkeeping at once: it maintains a
// run-history store in DIR (ingesting committed BENCH_*.json files on
// first open), compares against the newest trajectory point by
// generation timestamp, writes this run's tables as
// DIR/BENCH_<date>.json and records them as a new store record —
// queryable later via `calreport -store DIR -query regressions` or the
// /queryz of a cald serving that directory.
//
// The shared observability flags apply to the benchmark process itself:
// -timeout hard-caps the whole run (an expired run prints UNKNOWN and
// exits 3 with whatever tables completed), -metrics-json writes a
// summary of the sweeps (tables, cells, peak rates, memstats) and -pprof
// serves net/http/pprof for profiling the contended structures. -workers,
// -trace and -progress have no effect here: the sweeps size themselves
// from -max-goroutines and run no checker search. Run with -h for the
// exit-code legend.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"calgo/internal/cliflags"
	"calgo/internal/monitor"
	"calgo/internal/runstore"

	"calgo"
)

func main() {
	os.Exit(run())
}

var (
	duration = flag.Duration("dur", 500*time.Millisecond, "measurement window per cell")
	table    = flag.String("table", "all", "table to print: stacks, exchangers, syncqueue, queues, duals, elimk, monitor, all")
	maxG     = flag.Int("max-goroutines", 2*runtime.GOMAXPROCS(0), "largest goroutine count in sweeps")
	spin     = flag.Int("spin", 1, "exchanger partner-wait spin iterations (1 is best on few cores; raise on large machines)")
	jsonPath = flag.String("json", "", "also write the sweep tables as JSON to this path (e.g. BENCH_<date>.json)")
	compare  = flag.String("compare", "", "compare this run's rates against a baseline BENCH_*.json and print per-cell deltas")
	auto     = flag.String("auto", "", "accumulate the perf trajectory in the run-history store in this directory: compare against the newest trajectory point there (unless -compare is set), write BENCH_<date>.json there (unless -json is set) and record this run's tables in the store")
	gate     = flag.Float64("gate", 0, "with -compare: exit 1 when any cell regresses by more than this percentage (0 = warn only)")
	repeat   = flag.Int("repeat", 1, "measure every table this many times and keep each cell's best rate — the min-of-N noise floor that keeps -compare from flagging scheduler noise as regression")
)

// The printed tables in machine-readable form are the runstore bench
// document (schema documented in EXPERIMENTS.md), so a run can land in
// the run-history store and be queried back without translation.
type (
	jsonReport = runstore.Bench
	jsonTable  = runstore.BenchTable
	jsonRow    = runstore.BenchRow
)

var (
	report jsonReport
	// reportMu orders recordTable in the sweep goroutine against the
	// -timeout path reading partial tables from main.
	reportMu sync.Mutex
)

// recordTable appends one sweep table to the JSON report. The table ID
// is the "B<n>" prefix of the printed title. Under -repeat a table is
// recorded once per round; later rounds merge cell-wise, keeping each
// cell's best rate (max ops/sec = the least-interfered measurement, so
// N repeats form a noise floor under which -compare deltas are taken).
func recordTable(title, colLabel string, cols []int, rows map[string][]float64, order []string) {
	id, _, _ := strings.Cut(title, ":")
	tbl := jsonTable{ID: id, Title: title, ColumnLabel: colLabel, Columns: cols}
	for _, name := range order {
		tbl.Rows = append(tbl.Rows, jsonRow{Name: name, OpsPerSec: rows[name]})
	}
	reportMu.Lock()
	defer reportMu.Unlock()
	for i := range report.Tables {
		if report.Tables[i].ID == tbl.ID {
			mergeMax(&report.Tables[i], tbl)
			return
		}
	}
	report.Tables = append(report.Tables, tbl)
}

// mergeMax folds src into dst cell-wise, keeping the larger rate.
func mergeMax(dst *jsonTable, src jsonTable) {
	for _, srow := range src.Rows {
		for j := range dst.Rows {
			if dst.Rows[j].Name != srow.Name {
				continue
			}
			for k := range dst.Rows[j].OpsPerSec {
				if k < len(srow.OpsPerSec) && srow.OpsPerSec[k] > dst.Rows[j].OpsPerSec[k] {
					dst.Rows[j].OpsPerSec[k] = srow.OpsPerSec[k]
				}
			}
		}
	}
}

// snapshotTables copies the tables recorded so far.
func snapshotTables() []jsonTable {
	reportMu.Lock()
	defer reportMu.Unlock()
	return append([]jsonTable(nil), report.Tables...)
}

// snapshotReport copies the whole document (as stamped by writeJSON).
func snapshotReport() jsonReport {
	reportMu.Lock()
	defer reportMu.Unlock()
	doc := report
	doc.Tables = append([]jsonTable(nil), report.Tables...)
	return doc
}

func writeJSON(path string) error {
	reportMu.Lock()
	report.GOMAXPROCS = runtime.GOMAXPROCS(0)
	report.Window = duration.String()
	report.Generated = time.Now().UTC().Format(time.RFC3339)
	b, err := json.MarshalIndent(report, "", "  ")
	reportMu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func run() int {
	shared := cliflags.Register("calbench")
	flag.Parse()

	if err := shared.Start(); err != nil {
		shared.Logger().Error("startup failed", "err", err)
		return 2
	}
	defer shared.Close()

	// fail is the post-Start usage/environment exit: it still flushes
	// -metrics-json and -report, so every exit path after Start produces
	// the requested artifacts.
	fail := func(msg string, err error) int {
		shared.Logger().Error(msg, "err", err)
		if ferr := shared.Finish(2); ferr != nil {
			shared.Logger().Error("flushing outputs", "err", ferr)
		}
		return 2
	}

	if *auto != "" {
		if err := resolveAuto(shared); err != nil {
			return fail("resolving -auto", err)
		}
	}

	sigCtx, stop := cliflags.SignalContext()
	defer stop()

	exit := 0
	done := make(chan error, 1)
	go func() { done <- runTables() }()
	var expired <-chan time.Time
	if shared.Timeout() > 0 {
		t := time.NewTimer(shared.Timeout())
		defer t.Stop()
		expired = t.C
	}
	select {
	case err := <-done:
		if err != nil {
			return fail("benchmark failed", err)
		}
	case <-expired:
		// The sweep goroutines keep spinning until the process exits; the
		// tables printed so far are the partial answer.
		fmt.Printf("UNKNOWN: -timeout %v expired after %d of the requested tables\n",
			shared.Timeout(), len(snapshotTables()))
		exit = 3
	case <-sigCtx.Done():
		fmt.Printf("UNKNOWN: interrupted after %d of the requested tables\n", len(snapshotTables()))
		exit = 3
	}
	if exit == 3 && *jsonPath != "" {
		// A cut-short run still flushes its partial tables so the -json/-auto
		// perf trajectory accumulates whatever evidence the run produced.
		if err := writeJSON(*jsonPath); err != nil {
			shared.Logger().Error("writing partial tables", "path", *jsonPath, "err", err)
		} else {
			fmt.Printf("wrote %d partial tables to %s\n", len(snapshotTables()), *jsonPath)
		}
	}

	if exit == 0 && (*compare != "" || autoBase != nil) {
		label, base := autoBaseLabel, autoBase
		if *compare != "" {
			var err error
			if label, base, err = loadBaseline(*compare); err != nil {
				return fail("loading baseline", err)
			}
		}
		worst, err := compareBaseline(label, base, snapshotTables())
		if err != nil {
			return fail("comparing baseline", err)
		}
		if *gate > 0 && worst.pct > *gate {
			fmt.Printf("REGRESSION: %s is %.1f%% below baseline, gate is %.0f%%\n", worst.cell, worst.pct, *gate)
			exit = 1
		}
	}

	// -auto: record this run's tables as a new trajectory point (a
	// store-assigned ID, so several same-day runs stay distinct even
	// though they share BENCH_<date>.json).
	if autoStore != nil {
		if doc := snapshotReport(); len(doc.Tables) > 0 {
			rec := runstore.BenchRecord("", &doc)
			if err := autoStore.Put(rec); err != nil {
				shared.Logger().Error("recording trajectory point", "err", err)
			} else {
				fmt.Printf("recorded trajectory point %s in run store %s\n", rec.ID, *auto)
			}
		}
		if err := autoStore.Close(); err != nil {
			shared.Logger().Error("closing run store", "err", err)
		}
	}

	if m := shared.Metrics(); m != nil {
		tables := snapshotTables()
		m.Counter("bench.tables").Add(int64(len(tables)))
		for _, tbl := range tables {
			for _, row := range tbl.Rows {
				m.Counter("bench.cells").Add(int64(len(row.OpsPerSec)))
				g := m.Gauge("bench.peak_ops_per_sec." + tbl.ID)
				for _, v := range row.OpsPerSec {
					g.SetMax(int64(v))
				}
			}
		}
	}
	if err := shared.Finish(exit); err != nil {
		shared.Logger().Error("flushing outputs", "err", err)
		return 2
	}
	return exit
}

// The -auto run-history plumbing: the FS store whose segments live
// beside the BENCH_*.json files in the -auto directory, and the
// baseline bench document chosen from it.
var (
	autoStore     runstore.Store
	autoBase      *jsonReport
	autoBaseLabel string
)

// resolveAuto opens the run-history store in the -auto directory,
// ingests any committed BENCH_*.json files not yet recorded
// (idempotent: deterministic per-file IDs) and lands this run's tables
// in BENCH_<today>.json (unless -json is set). The newest bench record
// *by generation timestamp* becomes the comparison baseline — not the
// lexically newest filename, which stops being date order the moment a
// file name doesn't embed one — and the run's tables are recorded in
// the store afterwards. Explicit -compare/-json win.
func resolveAuto(shared *cliflags.Set) error {
	st, err := runstore.OpenFS(*auto, runstore.FSOptions{Metrics: shared.Metrics(), Logger: shared.Logger()})
	if err != nil {
		return err
	}
	autoStore = st
	if n, err := runstore.IngestBenchDir(st, *auto, shared.Logger()); err != nil {
		return err
	} else if n > 0 {
		shared.Logger().Info("ingested committed trajectory files", "dir", *auto, "files", n)
	}
	if *jsonPath == "" {
		*jsonPath = filepath.Join(*auto, "BENCH_"+time.Now().UTC().Format("2006-01-02")+".json")
	}
	if *compare != "" {
		return nil // an explicit baseline wins over the store's newest
	}
	rec, err := runstore.Latest(autoStore, runstore.Filter{Kind: runstore.KindBench})
	if err != nil {
		return err
	}
	if rec == nil || rec.Bench == nil {
		shared.Logger().Info("no baseline trajectory point yet; this run seeds the trajectory", "store", *auto)
		return nil
	}
	autoBase, autoBaseLabel = rec.Bench, fmt.Sprintf("%s (store %s)", rec.ID, *auto)
	if *jsonPath != "" {
		if _, err := os.Stat(*jsonPath); err == nil {
			shared.Logger().Info("baseline is today's file; this run will overwrite it after comparing", "path", *jsonPath)
		}
	}
	shared.Logger().Info("auto-comparing against newest baseline",
		"baseline", rec.ID, "generated", rec.Bench.Generated)
	return nil
}

// loadBaseline resolves a -compare argument: a BENCH_*.json document,
// or a run-store directory whose newest bench record (by generation
// time) becomes the baseline.
func loadBaseline(path string) (string, *jsonReport, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		st, err := runstore.OpenFS(path, runstore.FSOptions{})
		if err != nil {
			return "", nil, err
		}
		defer st.Close()
		if _, err := runstore.IngestBenchDir(st, path, nil); err != nil {
			return "", nil, err
		}
		rec, err := runstore.Latest(st, runstore.Filter{Kind: runstore.KindBench})
		if err != nil {
			return "", nil, err
		}
		if rec == nil || rec.Bench == nil {
			return "", nil, fmt.Errorf("no bench records in run store %s", path)
		}
		return fmt.Sprintf("%s (store %s)", rec.ID, path), rec.Bench, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", nil, fmt.Errorf("reading baseline: %w", err)
	}
	var base jsonReport
	if err := json.Unmarshal(b, &base); err != nil {
		return "", nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return path, &base, nil
}

func runTables() error {
	fmt.Printf("GOMAXPROCS=%d, window=%v\n\n", runtime.GOMAXPROCS(0), *duration)
	if *repeat < 1 {
		*repeat = 1
	}
	for round := 0; round < *repeat; round++ {
		if *repeat > 1 {
			fmt.Printf("-- measurement round %d/%d --\n\n", round+1, *repeat)
		}
		if err := runOnce(); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath); err != nil {
			return fmt.Errorf("writing %s: %w", *jsonPath, err)
		}
		fmt.Printf("wrote %d tables to %s\n", len(report.Tables), *jsonPath)
	}
	return nil
}

func runOnce() error {
	switch *table {
	case "stacks":
		benchStacks()
	case "exchangers":
		benchExchangers()
	case "syncqueue":
		benchSyncQueue()
	case "queues":
		benchQueues()
	case "duals":
		benchDuals()
	case "elimk":
		benchElimK()
	case "monitor":
		benchMonitor()
	case "all":
		benchStacks()
		benchExchangers()
		benchSyncQueue()
		benchQueues()
		benchDuals()
		benchElimK()
		benchMonitor()
	default:
		return fmt.Errorf("unknown table %q", *table)
	}
	return nil
}

// regression identifies the worst cell of a -compare run: how far below
// baseline it fell (percent) and which cell it was.
type regression struct {
	pct  float64
	cell string
}

// compareBaseline prints, per table, the percent delta of every cell
// present in both the baseline document and this run (positive =
// faster than baseline). Cells only one side has are counted and
// noted, never compared. Returns the worst regression.
func compareBaseline(label string, base *jsonReport, tables []jsonTable) (regression, error) {
	if base == nil {
		return regression{}, fmt.Errorf("no baseline document")
	}
	fmt.Printf("compare vs %s (baseline: gomaxprocs=%d, window=%s, generated %s)\n",
		label, base.GOMAXPROCS, base.Window, base.Generated)
	if base.GOMAXPROCS != runtime.GOMAXPROCS(0) || base.Window != duration.String() {
		fmt.Printf("note: baseline settings differ from this run (gomaxprocs=%d, window=%v); deltas are indicative only\n",
			runtime.GOMAXPROCS(0), *duration)
	}

	baseTables := make(map[string]jsonTable, len(base.Tables))
	for _, t := range base.Tables {
		baseTables[t.ID] = t
	}
	worst := regression{pct: -1}
	skipped := 0
	for _, cur := range tables {
		bt, ok := baseTables[cur.ID]
		if !ok {
			fmt.Printf("\n%s: not in baseline, skipped\n", cur.ID)
			skipped++
			continue
		}
		baseCols := make(map[int]int, len(bt.Columns)) // column value -> index
		for i, c := range bt.Columns {
			baseCols[c] = i
		}
		baseRows := make(map[string][]float64, len(bt.Rows))
		for _, r := range bt.Rows {
			baseRows[r.Name] = r.OpsPerSec
		}
		fmt.Printf("\n%s — delta vs baseline (%%)\n", cur.Title)
		fmt.Printf("%-22s", cur.ColumnLabel)
		for _, c := range cur.Columns {
			fmt.Printf("%12d", c)
		}
		fmt.Println()
		for _, row := range cur.Rows {
			bvals, ok := baseRows[row.Name]
			if !ok {
				fmt.Printf("%-22s%12s\n", row.Name, "(new row)")
				skipped++
				continue
			}
			fmt.Printf("%-22s", row.Name)
			for i, c := range cur.Columns {
				j, ok := baseCols[c]
				if !ok || j >= len(bvals) || i >= len(row.OpsPerSec) || bvals[j] <= 0 {
					fmt.Printf("%12s", "-")
					skipped++
					continue
				}
				delta := (row.OpsPerSec[i] - bvals[j]) / bvals[j] * 100
				fmt.Printf("%+11.1f%%", delta)
				if -delta > worst.pct {
					worst = regression{
						pct:  -delta,
						cell: fmt.Sprintf("%s %q %s=%d", cur.ID, row.Name, cur.ColumnLabel, c),
					}
				}
			}
			fmt.Println()
		}
	}
	fmt.Println()
	if skipped > 0 {
		fmt.Printf("%d cell(s)/table(s) present on only one side were not compared\n", skipped)
	}
	if worst.pct > 0 {
		fmt.Printf("worst regression: %.1f%% (%s)\n", worst.pct, worst.cell)
	} else {
		fmt.Println("no cell regressed below its baseline")
	}
	return worst, nil
}

// sweep runs work on each goroutine count for the window and returns
// successful ops/sec per count. work(tid) performs one operation attempt
// and reports whether it succeeded.
func sweep(counts []int, work func(tid calgo.ThreadID) bool) []float64 {
	out := make([]float64, len(counts))
	for i, g := range counts {
		var ops atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tid := calgo.ThreadID(w + 1)
				n := int64(0)
				for !stop.Load() {
					if work(tid) {
						n++
					}
				}
				ops.Add(n)
			}(w)
		}
		time.Sleep(*duration)
		stop.Store(true)
		wg.Wait()
		out[i] = float64(ops.Load()) / duration.Seconds()
	}
	return out
}

func gCounts() []int {
	counts := []int{1, 2, 4, 8}
	for g := 16; g <= *maxG; g *= 2 {
		counts = append(counts, g)
	}
	return counts
}

func printTable(title string, counts []int, rows map[string][]float64, order []string) {
	recordTable(title, "goroutines", counts, rows, order)
	fmt.Println(title)
	fmt.Printf("%-22s", "goroutines")
	for _, g := range counts {
		fmt.Printf("%12d", g)
	}
	fmt.Println()
	for _, name := range order {
		fmt.Printf("%-22s", name)
		for _, v := range rows[name] {
			fmt.Printf("%12.0f", v)
		}
		fmt.Println()
	}
	fmt.Println()
}

// benchStacks is experiment B1: balanced push/pop throughput.
func benchStacks() {
	counts := gCounts()
	treiber := calgo.NewTreiberStack("S")
	elim, err := calgo.NewElimStack("ES", calgo.ElimStackWithSlots(runtime.GOMAXPROCS(0)), calgo.ElimStackWithWaitPolicy(calgo.SpinWait(*spin)))
	if err != nil {
		panic(err)
	}
	lock := calgo.NewLockStack()

	rows := map[string][]float64{
		"treiber (lock-free)": sweep(counts, func(tid calgo.ThreadID) bool {
			treiber.Push(tid, int64(tid))
			treiber.Pop(tid)
			return true
		}),
		"elimination stack": sweep(counts, func(tid calgo.ThreadID) bool {
			_ = elim.Push(tid, int64(tid))
			elim.Pop(tid)
			return true
		}),
		"lock-based stack": sweep(counts, func(tid calgo.ThreadID) bool {
			lock.Push(tid, int64(tid))
			lock.Pop(tid)
			return true
		}),
	}
	printTable("B1: stack throughput, balanced push/pop (ops/sec; one op = push+pop)",
		counts, rows, []string{"treiber (lock-free)", "elimination stack", "lock-based stack"})
}

// benchExchangers is experiment B2: pairing throughput.
func benchExchangers() {
	counts := gCounts()
	cas := calgo.NewExchanger("E", calgo.ExchangerWithWaitPolicy(calgo.SpinWait(*spin)))
	lock := calgo.NewLockExchanger(50 * time.Microsecond)
	ch := make(chan int64)

	rows := map[string][]float64{
		"cas exchanger (Fig.1)": sweep(counts, func(tid calgo.ThreadID) bool {
			ok, _ := cas.Exchange(tid, int64(tid))
			return ok
		}),
		"lock exchanger": sweep(counts, func(tid calgo.ThreadID) bool {
			ok, _ := lock.Exchange(tid, int64(tid))
			return ok
		}),
		// Blocking rendezvous with the same 50µs give-up window as the
		// lock exchanger (an unbounded select would hang the 1-goroutine
		// cell and ignore the stop flag).
		"go channel rendezvous": sweep(counts, func(tid calgo.ThreadID) bool {
			timer := time.NewTimer(50 * time.Microsecond)
			defer timer.Stop()
			select {
			case ch <- int64(tid):
				return true
			case <-ch:
				return true
			case <-timer.C:
				return false
			}
		}),
	}
	printTable("B2: exchanger throughput (successful exchanges/sec, both sides counted)",
		counts, rows, []string{"cas exchanger (Fig.1)", "lock exchanger", "go channel rendezvous"})
}

// benchSyncQueue is experiment B5: hand-off throughput with half the
// goroutines putting and half taking.
func benchSyncQueue() {
	counts := []int{2, 4, 8}
	for g := 16; g <= *maxG; g *= 2 {
		counts = append(counts, g)
	}
	q := calgo.NewSyncQueue("SQ", calgo.SyncQueueWithWaitPolicy(calgo.SpinWait(*spin)))
	// A striped variant: G/2 independent rendezvous slots with random slot
	// choice — the elimination-array principle applied to the synchronous
	// queue, as in the scalable synchronous queues the paper cites ([22]).
	striped := make([]*calgo.SyncQueue, *maxG/2)
	for i := range striped {
		striped[i] = calgo.NewSyncQueue(calgo.ObjectID(fmt.Sprintf("SQ%d", i)), calgo.SyncQueueWithWaitPolicy(calgo.SpinWait(*spin)))
	}
	ch := make(chan int64)

	rows := map[string][]float64{
		"dual syncqueue": sweep(counts, func(tid calgo.ThreadID) bool {
			if tid%2 == 0 {
				return q.TryPut(tid, int64(tid))
			}
			_, ok := q.TryTake(tid)
			return ok
		}),
		"striped syncqueue": sweep(counts, func(tid calgo.ThreadID) bool {
			q := striped[rand.IntN(len(striped))]
			if tid%2 == 0 {
				return q.TryPut(tid, int64(tid))
			}
			_, ok := q.TryTake(tid)
			return ok
		}),
		"go channel": sweep(counts, func(tid calgo.ThreadID) bool {
			timer := time.NewTimer(50 * time.Microsecond)
			defer timer.Stop()
			if tid%2 == 0 {
				select {
				case ch <- int64(tid):
					return true
				case <-timer.C:
					return false
				}
			}
			select {
			case <-ch:
				return true
			case <-timer.C:
				return false
			}
		}),
	}
	printTable("B5: synchronous queue successful hand-off sides/sec (half putters, half takers)",
		counts, rows, []string{"dual syncqueue", "striped syncqueue", "go channel"})
}

// benchQueues is experiment B7: FIFO queue throughput, Michael-Scott vs a
// lock-based queue (the queue-side analogue of B1).
func benchQueues() {
	counts := gCounts()
	ms := calgo.NewMSQueue("Q")
	lock := calgo.NewLockQueue()
	rows := map[string][]float64{
		"michael-scott": sweep(counts, func(tid calgo.ThreadID) bool {
			ms.Enq(tid, int64(tid))
			ms.Deq(tid)
			return true
		}),
		"lock-based queue": sweep(counts, func(tid calgo.ThreadID) bool {
			lock.Enq(tid, int64(tid))
			lock.Deq(tid)
			return true
		}),
	}
	printTable("B7: FIFO queue throughput, balanced enq/deq (ops/sec; one op = enq+deq)",
		counts, rows, []string{"michael-scott", "lock-based queue"})
}

// benchDuals is experiment B8: hand-off throughput of the §6 dual data
// structures, half producers and half consumers with bounded patience.
func benchDuals() {
	counts := []int{2, 4, 8}
	for g := 16; g <= *maxG; g *= 2 {
		counts = append(counts, g)
	}
	ds := calgo.NewDualStack("DS", calgo.DualStackWithWaitPolicy(calgo.SpinWait(*spin)))
	dq := calgo.NewDualQueue("DQ", calgo.DualQueueWithWaitPolicy(calgo.SpinWait(*spin)))
	// Each goroutine alternates produce/consume so the structures stay
	// bounded regardless of the window length.
	rows := map[string][]float64{
		"dual stack": sweep(counts, func(tid calgo.ThreadID) bool {
			ds.Push(tid, int64(tid))
			_, ok := ds.TryPop(tid, 4)
			return ok
		}),
		"dual queue": sweep(counts, func(tid calgo.ThreadID) bool {
			dq.Enq(tid, int64(tid))
			_, ok := dq.TryDeq(tid, 4)
			return ok
		}),
	}
	printTable("B8: dual data structures, completed produce+consume rounds/sec",
		counts, rows, []string{"dual stack", "dual queue"})
}

// benchElimK is experiment B6: the elimination-array width ablation at a
// fixed high goroutine count.
func benchElimK() {
	g := *maxG
	ks := []int{1, 2, 4, 8, 16}
	title := fmt.Sprintf("B6: elimination stack throughput vs array width K (goroutines=%d)", g)
	fmt.Println(title)
	fmt.Printf("%-10s%14s\n", "K", "ops/sec")
	rates := make([]float64, 0, len(ks))
	for _, k := range ks {
		es, err := calgo.NewElimStack("ES", calgo.ElimStackWithSlots(k), calgo.ElimStackWithWaitPolicy(calgo.SpinWait(*spin)))
		if err != nil {
			panic(err)
		}
		r := sweep([]int{g}, func(tid calgo.ThreadID) bool {
			_ = es.Push(tid, int64(tid))
			es.Pop(tid)
			return true
		})
		rates = append(rates, r[0])
		fmt.Printf("%-10d%14.0f\n", k, r[0])
	}
	fmt.Println()
	recordTable(title, "K", ks, map[string][]float64{"elimination stack": rates}, []string{"elimination stack"})
}

// benchMonitor is experiment B12: checker throughput (history events/sec)
// of the O(n log n) specialized monitors against the memoized parallel
// DFS, on unambiguous linearizable histories of growing size. DFS cells
// are bounded: a run that exhausts the default state budget or the cell
// deadline records 0 (printed as a zero, skipped by -compare), and the
// 100k-event DFS cell is not attempted at all — the checker's real-time
// order alone is an O(n²) matrix there (~40 GB of pairs at 200k events),
// which is precisely the gap the monitors close.
func benchMonitor() {
	sizes := []int{1_000, 10_000, 100_000} // history events; ops = events/2
	const dfsMaxEvents = 10_000
	kinds := []struct {
		name string
		sp   calgo.Spec
		gen  func(n, threads int, seed int64, obj calgo.ObjectID) calgo.History
	}{
		{"queue", calgo.NewQueueSpec("B"), monitor.GenQueue},
		{"stack", calgo.NewStackSpec("B"), monitor.GenStack},
		{"set", calgo.NewSetSpec("B"), monitor.GenSet},
		{"pqueue", calgo.NewPQueueSpec("B"), monitor.GenPQueue},
	}
	rows := make(map[string][]float64, 2*len(kinds))
	var order []string
	for _, k := range kinds {
		monRates := make([]float64, len(sizes))
		dfsRates := make([]float64, len(sizes))
		for i, events := range sizes {
			h := k.gen(events/2, 4, 42, "B")
			monRates[i] = checkerRate(h, k.sp, events, calgo.EngineMonitor)
			if events <= dfsMaxEvents {
				dfsRates[i] = checkerRate(h, k.sp, events, calgo.EngineDFS)
			}
		}
		rows[k.name+" monitor"] = monRates
		rows[k.name+" dfs"] = dfsRates
		order = append(order, k.name+" monitor", k.name+" dfs")
	}
	title := "B12: checker throughput on unambiguous histories, specialized monitor vs DFS (events/sec; 0 = over budget or not attempted)"
	recordTable(title, "events", sizes, rows, order)
	fmt.Println(title)
	fmt.Printf("%-22s", "events")
	for _, n := range sizes {
		fmt.Printf("%12d", n)
	}
	fmt.Println()
	for _, name := range order {
		fmt.Printf("%-22s", name)
		for _, v := range rows[name] {
			fmt.Printf("%12.0f", v)
		}
		fmt.Println()
	}
	fmt.Println()
}

// checkerRate measures one B12 cell: repeated full checks of h within the
// measurement window (always at least one), returning events/sec. A cell
// whose single check cannot finish inside 10 windows (min 5s) or exhausts
// the state budget scores 0.
func checkerRate(h calgo.History, sp calgo.Spec, events int, eng calgo.Engine) float64 {
	c, err := calgo.NewChecker(sp, calgo.WithEngine(eng))
	if err != nil {
		panic(err)
	}
	cellCap := 10 * *duration
	if cellCap < 5*time.Second {
		cellCap = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), cellCap)
	defer cancel()
	start := time.Now()
	runs := 0
	for {
		res, err := c.Check(ctx, h)
		if err != nil || res.Verdict != calgo.VerdictSat {
			return 0 // deadline, budget, or (unexpected) rejection
		}
		runs++
		if elapsed := time.Since(start); elapsed >= *duration || ctx.Err() != nil {
			return float64(runs*events) / elapsed.Seconds()
		}
	}
}
