// Command calcheck decides concurrency-aware linearizability (or classical
// linearizability) of one or more histories read from files or stdin,
// against a named specification.
//
// Usage:
//
//	calcheck -spec exchanger -object E -mode cal history.txt
//	calcheck -spec stack -object S -mode lin < history.txt
//	calcheck -spec exchanger -workers 4 run1.txt run2.txt run3.txt
//
// With several history files the checks fan out across a worker pool
// (-workers, default GOMAXPROCS) and each file is reported on its own
// line prefixed with its name.
//
// The history format is line-oriented:
//
//	inv t1 E.exchange 3
//	res t1 E.exchange (true,4)
//
// The check is resource-bounded: -timeout imposes a wall-clock deadline,
// -max-states and -memo-budget bound the search, and the process responds
// to interrupts (SIGINT/SIGTERM) by reporting how far the search got
// instead of dying mid-answer.
//
// Observability: -metrics-json writes the search counters as JSON when
// done, -trace streams sampled search events and dumps a flight-recorder
// ring on VIOLATION/UNKNOWN, -progress prints live status lines, -pprof
// serves net/http/pprof, and -serve exposes the live ops endpoint
// (/metrics Prometheus exposition, /statusz live run status, /flightz,
// /runsz). Diagnostics are structured log lines shaped by -log-level and
// -log-format. Run with -h for the exit-code legend.
//
// Explainability: -explain renders a per-thread timeline of every
// verdict's evidence (concurrency windows, the matched CA-elements, the
// first blocked operation on VIOLATION); -dot writes a Graphviz view of
// the worst verdict's real-time order and CA-element partition; -report
// writes a self-contained calgo.report/v1 run report (JSON, or Markdown
// for a .md path).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"calgo"
	"calgo/internal/cliflags"
	"calgo/internal/jobs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		specName   = flag.String("spec", "exchanger", "specification: exchanger, elimarray, stack, central-stack, dual-stack, queue, set, pqueue, syncqueue, register, snapshot")
		object     = flag.String("object", "E", "object identifier the spec constrains")
		threads    = flag.Int("threads", 4, "participant bound for -spec snapshot")
		mode       = flag.String("mode", "cal", "property: cal (concurrency-aware), lin (classical), setlin")
		verbose    = flag.Bool("v", false, "print the witness trace and search statistics")
		maxStats   = flag.Int("max-states", 4_000_000, "checker state budget")
		memoBudget = flag.Int("memo-budget", 0, "approximate memoization memory budget in bytes (0 = unlimited)")
		remote     = flag.String("remote", "", "check against a running cald at this base URL (e.g. http://127.0.0.1:8419) instead of locally; 429/5xx responses are retried with jittered exponential backoff")
	)
	shared := cliflags.Register("calcheck")
	flag.Parse()

	inputs, err := readInputs(flag.Args())
	if err != nil {
		shared.Logger().Error("reading inputs", "err", err)
		return 2
	}

	if *remote != "" {
		return runRemote(shared, *remote, inputs, *specName, *object, *threads, *mode, *verbose)
	}

	sp, err := specByName(*specName, calgo.ObjectID(*object), *threads)
	if err != nil {
		shared.Logger().Error("bad specification", "err", err)
		return 2
	}
	histories := make([]calgo.History, len(inputs))
	for i, in := range inputs {
		h, err := calgo.ParseHistoryFile(in.name, in.src)
		if err != nil {
			shared.Logger().Error("parsing history", "err", err)
			return 2
		}
		histories[i] = h
	}

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

	sigCtx, stop := cliflags.SignalContext()
	defer stop()
	ctx, cancel := shared.WithTimeout(sigCtx)
	defer cancel()

	opts := append(shared.Options(), calgo.WithMaxStates(*maxStats), calgo.WithEngine(shared.Engine()))
	if *memoBudget > 0 {
		opts = append(opts, calgo.WithMemoBudget(*memoBudget))
	}
	switch *mode {
	case "cal", "setlin":
	case "lin":
		opts = append(opts, calgo.WithElementCap(1))
	default:
		return fail("bad flags", fmt.Errorf("unknown mode %q", *mode))
	}
	results, err := calgo.CheckMany(ctx, histories, sp, opts...)
	if err != nil {
		return fail("check failed", err)
	}

	exit, worstIdx := 0, -1
	for i, r := range results {
		prefix := ""
		if len(results) > 1 {
			prefix = inputs[i].name + ": "
		}
		code := report(prefix, r, sp.Name(), *mode, *verbose)
		if worstIdx < 0 || rankExit(code) > rankExit(exit) {
			worstIdx = i
		}
		exit = worstExit(exit, code)
		if shared.Explain() && r.Explanation != nil {
			fmt.Print(calgo.RenderTimeline(r.Explanation, calgo.TimelineOptions{}))
		}
		if shared.WantsRuns() && r.Explanation != nil {
			shared.AddRun(calgo.RunReport{
				Name:     inputs[i].name,
				Verdict:  calgo.VerdictWord(r.Verdict),
				Detail:   runDetail(r),
				Timeline: calgo.RenderTimeline(r.Explanation, calgo.TimelineOptions{ASCII: true}),
				DOT:      calgo.RenderDOT(r.Explanation),
			})
		}
	}
	// -dot renders the evidence of the run's worst verdict: the matched
	// CA-element partition on OK, the blocked operation on VIOLATION.
	if worstIdx >= 0 && results[worstIdx].Explanation != nil {
		if err := shared.WriteDOT(calgo.RenderDOT(results[worstIdx].Explanation)); err != nil {
			return fail("writing DOT", err)
		}
	}
	if exit != 0 {
		shared.DumpFlight()
	}
	if err := shared.Finish(exit); err != nil {
		shared.Logger().Error("flushing outputs", "err", err)
		return 2
	}
	return exit
}

// runRemote is -remote: each input is submitted to the cald daemon as a
// calgo.job/v1 document and long-polled to a verdict, which arrives as
// soon as the daemon decides it rather than at a poll tick. The client
// absorbs the daemon's admission control — 429/503/5xx answers are
// retried with jittered exponential backoff honouring Retry-After — so
// a throttled run degrades to slower, not to failed. -timeout travels
// with the job as its server-side (clamped) deadline.
func runRemote(shared *cliflags.Set, base string, inputs []input, specName, object string, threads int, mode string, verbose bool) int {
	if err := shared.Start(); err != nil {
		shared.Logger().Error("startup failed", "err", err)
		return 2
	}
	defer shared.Close()
	ctx, stop := cliflags.SignalContext()
	defer stop()

	client := jobs.NewClient(base)
	client.OnRetry = func(attempt int, wait time.Duration, cause string) {
		shared.Logger().Warn("daemon busy; backing off", "attempt", attempt, "wait", wait, "cause", cause)
	}

	exit := 0
	for _, in := range inputs {
		prefix := ""
		if len(inputs) > 1 {
			prefix = in.name + ": "
		}
		job, err := client.Check(ctx, jobs.Request{
			Spec: specName, Object: object, Threads: threads, Mode: mode,
			Engine:    shared.Engine().String(),
			History:   in.src,
			TimeoutMS: shared.Timeout().Milliseconds(),
		})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Printf("%sUNKNOWN: interrupted while waiting on the daemon\n", prefix)
				exit = worstExit(exit, 3)
				break
			}
			shared.Logger().Error("remote check failed", "input", in.name, "err", err)
			if ferr := shared.Finish(2); ferr != nil {
				shared.Logger().Error("flushing outputs", "err", ferr)
			}
			return 2
		}
		exit = worstExit(exit, reportRemote(prefix, job, mode, verbose))
		if shared.WantsRuns() {
			shared.AddRun(calgo.RunReport{Name: in.name, Verdict: job.Verdict, Detail: job.Detail})
		}
	}
	if err := shared.Finish(exit); err != nil {
		shared.Logger().Error("flushing outputs", "err", err)
		return 2
	}
	return exit
}

// reportRemote renders a finished remote job in the local verdict
// vocabulary, marking cache answers so operators can see replay traffic
// being absorbed.
func reportRemote(prefix string, j jobs.Job, mode string, verbose bool) int {
	from := fmt.Sprintf(" [job %s", j.ID)
	if j.Cached {
		from += ", cached"
	}
	from += "]"
	if j.State == jobs.StateCanceled {
		fmt.Printf("%sUNKNOWN: job was canceled on the daemon%s\n", prefix, from)
		return 3
	}
	switch j.Verdict {
	case "OK":
		fmt.Printf("%sOK: history is %s w.r.t. %s%s\n", prefix, propertyName(mode), j.Request.Spec, from)
		if verbose {
			fmt.Println(j.Detail)
		}
		return 0
	case "VIOLATION":
		fmt.Printf("%sVIOLATION: history is not %s w.r.t. %s%s\n", prefix, propertyName(mode), j.Request.Spec, from)
		fmt.Println(j.Detail)
		return 1
	default:
		fmt.Printf("%sUNKNOWN: could not decide whether the history is %s w.r.t. %s%s\n",
			prefix, propertyName(mode), j.Request.Spec, from)
		fmt.Println(j.Detail)
		return 3
	}
}

// rankExit orders exit codes by severity: violation (1) dominates
// unknown (3), which dominates success (0).
func rankExit(c int) int {
	switch c {
	case 1:
		return 2
	case 3:
		return 1
	default:
		return 0
	}
}

// worstExit combines per-history exit codes under rankExit.
func worstExit(a, b int) int {
	if rankExit(b) > rankExit(a) {
		return b
	}
	return a
}

// runDetail summarizes one result for the -report document.
func runDetail(r calgo.Result) string {
	switch r.Verdict {
	case calgo.VerdictUnsat:
		return r.Reason
	case calgo.VerdictUnknown:
		return fmt.Sprintf("cause: %s; frontier: %s", r.Unknown.Reason, r.Unknown.Frontier)
	default:
		return fmt.Sprintf("states explored: %d (memo hits %d)", r.States, r.MemoHits)
	}
}

func report(prefix string, r calgo.Result, specName, mode string, verbose bool) int {
	if r.Verdict == calgo.VerdictUnknown {
		fmt.Printf("%sUNKNOWN: could not decide whether the history is %s w.r.t. %s\n",
			prefix, propertyName(mode), specName)
		fmt.Printf("cause: %s\n", r.Unknown.Reason)
		fmt.Printf("frontier: %s\n", r.Unknown.Frontier)
		if verbose && len(r.Unknown.PartialWitness) > 0 {
			fmt.Printf("partial witness: %s\n", r.Unknown.PartialWitness)
		}
		return 3
	}
	if r.OK {
		fmt.Printf("%sOK: history is %s w.r.t. %s\n", prefix, propertyName(mode), specName)
		if verbose {
			fmt.Printf("witness: %s\n", r.Witness)
			if len(r.Dropped) > 0 {
				fmt.Printf("dropped pending operations: %v\n", r.Dropped)
			}
			fmt.Printf("states explored: %d (memo hits %d)\n", r.States, r.MemoHits)
		}
		return 0
	}
	fmt.Printf("%sVIOLATION: history is not %s w.r.t. %s\n", prefix, propertyName(mode), specName)
	fmt.Println(r.Reason)
	if verbose {
		fmt.Printf("states explored: %d (memo hits %d)\n", r.States, r.MemoHits)
	}
	return 1
}

func propertyName(mode string) string {
	switch mode {
	case "cal":
		return "CA-linearizable"
	case "lin":
		return "linearizable"
	default:
		return "set-linearizable"
	}
}

func specByName(name string, o calgo.ObjectID, threads int) (calgo.Spec, error) {
	switch name {
	case "exchanger":
		return calgo.NewExchangerSpec(o), nil
	case "elimarray":
		return calgo.NewElimArraySpec(o), nil
	case "stack":
		return calgo.NewStackSpec(o), nil
	case "central-stack":
		return calgo.NewCentralStackSpec(o), nil
	case "dual-stack":
		return calgo.NewDualStackSpec(o), nil
	case "snapshot":
		return calgo.NewSnapshotSpec(o, threads), nil
	case "queue":
		return calgo.NewQueueSpec(o), nil
	case "set":
		return calgo.NewSetSpec(o), nil
	case "pqueue":
		return calgo.NewPQueueSpec(o), nil
	case "syncqueue":
		return calgo.NewSyncQueueSpec(o), nil
	case "register":
		return calgo.NewRegisterSpec(o), nil
	default:
		return nil, fmt.Errorf("unknown spec %q", name)
	}
}

type input struct {
	name, src string
}

// readInputs returns one history source per file argument, or a single
// stdin source when no files are given. Names are kept for diagnostics
// and per-file verdict prefixes.
func readInputs(args []string) ([]input, error) {
	if len(args) == 0 {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, fmt.Errorf("reading stdin: %w", err)
		}
		return []input{{"<stdin>", string(b)}}, nil
	}
	inputs := make([]input, len(args))
	for i, arg := range args {
		b, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		inputs[i] = input{arg, string(b)}
	}
	return inputs, nil
}
