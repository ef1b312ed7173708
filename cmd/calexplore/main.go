// Command calexplore runs the bounded model checker over one of the
// paper's algorithms, discharging the §5 proof obligations on every
// interleaving of a configurable client program.
//
// Usage:
//
//	calexplore -target exchanger -values 3,4,7
//	calexplore -target stack -program "push:1 pop,push:2 pop"
//	calexplore -target elimstack -program "push:1,push:2,pop" -slots 1 -retries 2
//
// For -target exchanger, each comma-separated value is one thread
// performing a single exchange. For the stacks, -program is a
// comma-separated list of threads, each a space-separated list of push:V
// and pop operations.
//
// The exploration is resource-bounded: -timeout imposes a wall-clock
// deadline and -max-states bounds the search; interrupts (SIGINT/SIGTERM)
// stop the exploration cooperatively. A bounded or interrupted run reports
// UNKNOWN with partial statistics and exits 3; a genuine violation exits 1;
// usage errors exit 2.
//
// Observability: -metrics-json writes the exploration counters as JSON
// when done, -trace streams sampled events and dumps a flight-recorder
// ring on VIOLATION/UNKNOWN, -progress prints live status lines, and
// -serve exposes the live ops endpoint (/metrics Prometheus exposition,
// /statusz live run status with ?watch=1 streaming, /flightz, /runsz,
// and /debug/pprof/ for profiles). Diagnostics are structured log
// lines shaped by -log-level and -log-format. Run with -h for the
// exit-code legend.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"calgo"
	"calgo/internal/cliflags"
	"calgo/internal/model"
	"calgo/internal/rg"
	"calgo/internal/spec"
)

func main() {
	os.Exit(run())
}

// mainExit maps exploration outcomes to the exit-code convention: 0
// verified, 1 violation, 2 usage error, 3 undecided (budget or deadline).
func mainExit(err error, logger *slog.Logger) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, calgo.ErrExploreInterrupted) || errors.Is(err, calgo.ErrExploreMaxStates):
		fmt.Printf("UNKNOWN: exploration stopped before covering every interleaving: %v\n", err)
		return 3
	default:
		var verr *calgo.ExploreViolation
		if errors.As(err, &verr) {
			logger.Error("violation found", "err", err)
			return 1
		}
		logger.Error("exploration failed", "err", err)
		return 2
	}
}

func run() int {
	var (
		target    = flag.String("target", "exchanger", "model: exchanger, stack, elimstack, syncqueue, dualstack, dualqueue, snapshot")
		values    = flag.String("values", "3,4,7", "exchanger: one exchange value per thread")
		program   = flag.String("program", "push:1,pop", "stacks: comma-separated threads of push:V/pop ops")
		sqProgram = flag.String("sq-program", "put:1,take", "syncqueue: comma-separated threads of put:V/take ops")
		dqProgram = flag.String("dq-program", "enq:1,deq", "dualqueue: comma-separated threads of enq:V/deq ops")
		slots     = flag.Int("slots", 1, "elimstack: elimination array width K")
		retries   = flag.Int("retries", 2, "elimstack: retry rounds before a thread halts")
		maxStates = flag.Int("max-states", 4_000_000, "state budget")
	)
	shared := cliflags.Register("calexplore")
	flag.Parse()

	if err := shared.Start(); err != nil {
		shared.Logger().Error("startup failed", "err", err)
		return 2
	}
	defer shared.Close()

	sigCtx, stop := cliflags.SignalContext()
	defer stop()
	ctx, cancel := shared.WithTimeout(sigCtx)
	defer cancel()

	base := append(shared.Options(), calgo.WithMaxStates(*maxStates))

	exploreErr := explore(ctx, *target, flags{
		values:    *values,
		program:   *program,
		sqProgram: *sqProgram,
		dqProgram: *dqProgram,
		slots:     *slots,
		retries:   *retries,
	}, base)
	exit := mainExit(exploreErr, shared.Logger())

	// A violation carries the typed schedule that reached it; render it
	// everywhere evidence goes: the flight dump, -explain, -dot, -report.
	var schedule []calgo.ExploreStep
	var verr *calgo.ExploreViolation
	if errors.As(exploreErr, &verr) {
		schedule = verr.Schedule
	}
	if exit == 1 || exit == 3 {
		shared.DumpFlight(schedule...)
	}
	if len(schedule) > 0 {
		if shared.Explain() {
			fmt.Print(calgo.RenderScheduleTimeline(schedule))
		}
		if err := shared.WriteDOT(calgo.RenderScheduleDOT(schedule)); err != nil {
			// Still flush -metrics-json/-report: every exit path after Start
			// produces the requested artifacts.
			shared.Logger().Error("writing DOT", "err", err)
			if ferr := shared.Finish(2); ferr != nil {
				shared.Logger().Error("flushing outputs", "err", ferr)
			}
			return 2
		}
	}
	if shared.WantsRuns() {
		run := calgo.RunReport{Name: *target, Verdict: exitVerdict(exit), Schedule: schedule}
		if exploreErr != nil {
			run.Detail = exploreErr.Error()
		}
		if len(schedule) > 0 {
			run.Timeline = calgo.RenderScheduleTimeline(schedule)
			run.DOT = calgo.RenderScheduleDOT(schedule)
		}
		shared.AddRun(run)
	}
	if err := shared.Finish(exit); err != nil {
		shared.Logger().Error("flushing outputs", "err", err)
		return 2
	}
	return exit
}

// exitVerdict maps an exit code to the report verdict vocabulary.
func exitVerdict(exit int) string {
	switch exit {
	case 0:
		return "OK"
	case 1:
		return "VIOLATION"
	case 3:
		return "UNKNOWN"
	}
	return "ERROR"
}

// flags carries the target-specific knobs into the per-target explorers.
type flags struct {
	values, program, sqProgram, dqProgram string
	slots, retries                        int
}

func explore(ctx context.Context, target string, f flags, base []calgo.Option) error {
	switch target {
	case "exchanger":
		return exploreExchanger(ctx, f.values, base)
	case "stack":
		progs, err := parsePrograms(f.program)
		if err != nil {
			return err
		}
		return exploreStack(ctx, progs, base)
	case "elimstack":
		progs, err := parsePrograms(f.program)
		if err != nil {
			return err
		}
		return exploreElimStack(ctx, progs, f.slots, f.retries, base)
	case "syncqueue":
		progs, err := parseSQPrograms(f.sqProgram)
		if err != nil {
			return err
		}
		return exploreSyncQueue(ctx, progs, base)
	case "dualstack":
		progs, err := parsePrograms(f.program)
		if err != nil {
			return err
		}
		return exploreDualStack(ctx, progs, f.retries, base)
	case "dualqueue":
		progs, err := parseDQPrograms(f.dqProgram)
		if err != nil {
			return err
		}
		return exploreDualQueue(ctx, progs, f.retries, base)
	case "snapshot":
		vals, err := parseValues(f.values)
		if err != nil {
			return err
		}
		return exploreSnapshot(ctx, vals, base)
	default:
		return fmt.Errorf("unknown target %q", target)
	}
}

func parseValues(values string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(values, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func exploreExchanger(ctx context.Context, values string, base []calgo.Option) error {
	vals, err := parseValues(values)
	if err != nil {
		return err
	}
	programs := make([][]int64, len(vals))
	for i, v := range vals {
		programs[i] = []int64{v}
	}
	init := model.NewExchanger(model.ExchangerConfig{Programs: programs})
	fmt.Printf("exploring exchanger: %d threads, checking proof outline + J + rely/guarantee + CAL\n", len(programs))
	stats, err := calgo.Explore(ctx, init, append(base,
		calgo.WithInvariant(func(st calgo.ModelState) error {
			if err := model.InvariantJ(st); err != nil {
				return err
			}
			return model.ProofOutline(st)
		}),
		calgo.WithTransition(rg.Hook(true)),
		calgo.WithTerminal(model.VerifyCAL(spec.NewExchanger("E"), nil, true)))...)
	report(stats, err)
	return err
}

func exploreStack(ctx context.Context, programs [][]model.StackOp, base []calgo.Option) error {
	init := model.NewStack(model.StackConfig{Programs: programs})
	fmt.Printf("exploring central stack: %d threads, checking linearizability of every execution\n", len(programs))
	stats, err := calgo.Explore(ctx, init, append(base,
		calgo.WithTerminal(model.VerifyCAL(spec.NewCentralStack("S"), nil, true)))...)
	report(stats, err)
	return err
}

func exploreElimStack(ctx context.Context, programs [][]model.StackOp, slots, retries int, base []calgo.Option) error {
	init := model.NewElimStack(model.ESConfig{
		Slots:    slots,
		Retries:  retries,
		Programs: programs,
	})
	fmt.Printf("exploring elimination stack: %d threads, K=%d, R=%d, checking linearizability via F_ES ∘ F̂_AR\n",
		len(programs), slots, retries)
	stats, err := calgo.Explore(ctx, init, append(base,
		calgo.WithTerminal(model.VerifyCAL(spec.NewStack("ES"), init.Project, true)),
		calgo.WithDeadlockAllowed())...)
	report(stats, err)
	return err
}

func report(stats calgo.ExploreStats, err error) {
	fmt.Printf("states=%d transitions=%d terminals=%d max-depth=%d steals=%d\n",
		stats.States, stats.Transitions, stats.Terminals, stats.MaxDepth, stats.Steals)
	if err == nil {
		fmt.Println("VERIFIED: all obligations hold on every interleaving")
	}
}

func exploreSyncQueue(ctx context.Context, programs [][]model.SQOp, base []calgo.Option) error {
	init := model.NewSyncQueue(model.SQConfig{Programs: programs})
	fmt.Printf("exploring synchronous queue: %d threads, checking CAL of every execution\n", len(programs))
	stats, err := calgo.Explore(ctx, init, append(base,
		calgo.WithTerminal(model.VerifyCAL(spec.NewSyncQueue("SQ"), nil, true)))...)
	report(stats, err)
	return err
}

func parseSQPrograms(src string) ([][]model.SQOp, error) {
	var programs [][]model.SQOp
	for _, threadSrc := range strings.Split(src, ",") {
		var prog []model.SQOp
		for _, opSrc := range strings.Fields(threadSrc) {
			switch {
			case opSrc == "take":
				prog = append(prog, model.Take())
			case strings.HasPrefix(opSrc, "put:"):
				v, err := strconv.ParseInt(opSrc[len("put:"):], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad op %q: %w", opSrc, err)
				}
				prog = append(prog, model.Put(v))
			default:
				return nil, fmt.Errorf("bad op %q, want put:V or take", opSrc)
			}
		}
		if len(prog) == 0 {
			return nil, fmt.Errorf("empty thread program in %q", src)
		}
		programs = append(programs, prog)
	}
	return programs, nil
}

func parsePrograms(src string) ([][]model.StackOp, error) {
	var programs [][]model.StackOp
	for _, threadSrc := range strings.Split(src, ",") {
		var prog []model.StackOp
		for _, opSrc := range strings.Fields(threadSrc) {
			switch {
			case opSrc == "pop":
				prog = append(prog, model.Pop())
			case strings.HasPrefix(opSrc, "push:"):
				v, err := strconv.ParseInt(opSrc[len("push:"):], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad op %q: %w", opSrc, err)
				}
				prog = append(prog, model.Push(v))
			default:
				return nil, fmt.Errorf("bad op %q, want push:V or pop", opSrc)
			}
		}
		if len(prog) == 0 {
			return nil, fmt.Errorf("empty thread program in %q", src)
		}
		programs = append(programs, prog)
	}
	return programs, nil
}

func exploreDualStack(ctx context.Context, programs [][]model.StackOp, retries int, base []calgo.Option) error {
	init := model.NewDualStack(model.DSConfig{Retries: retries, Programs: programs})
	fmt.Printf("exploring dual stack: %d threads, R=%d, checking CAL of every execution\n", len(programs), retries)
	stats, err := calgo.Explore(ctx, init, append(base,
		calgo.WithTerminal(model.VerifyCAL(spec.NewDualStack("DS"), nil, true)),
		calgo.WithDeadlockAllowed())...)
	report(stats, err)
	return err
}

func exploreDualQueue(ctx context.Context, programs [][]model.QOp, retries int, base []calgo.Option) error {
	init := model.NewDualQueue(model.DQConfig{Retries: retries, Programs: programs})
	fmt.Printf("exploring dual queue: %d threads, R=%d, checking CAL of every execution\n", len(programs), retries)
	stats, err := calgo.Explore(ctx, init, append(base,
		calgo.WithTerminal(model.VerifyCAL(spec.NewDualQueue("DQ"), nil, true)),
		calgo.WithDeadlockAllowed())...)
	report(stats, err)
	return err
}

func exploreSnapshot(ctx context.Context, values []int64, base []calgo.Option) error {
	init := model.NewSnapshot(model.ISConfig{Values: values})
	fmt.Printf("exploring immediate snapshot: %d participants, register-accurate scans\n", len(values))
	stats, err := calgo.Explore(ctx, init, append(base,
		calgo.WithTerminal(model.VerifyCAL(spec.NewSnapshot("IS", len(values)), init.Project, true)))...)
	report(stats, err)
	return err
}

func parseDQPrograms(src string) ([][]model.QOp, error) {
	var programs [][]model.QOp
	for _, threadSrc := range strings.Split(src, ",") {
		var prog []model.QOp
		for _, opSrc := range strings.Fields(threadSrc) {
			switch {
			case opSrc == "deq":
				prog = append(prog, model.Deq())
			case strings.HasPrefix(opSrc, "enq:"):
				v, err := strconv.ParseInt(opSrc[len("enq:"):], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad op %q: %w", opSrc, err)
				}
				prog = append(prog, model.Enq(v))
			default:
				return nil, fmt.Errorf("bad op %q, want enq:V or deq", opSrc)
			}
		}
		if len(prog) == 0 {
			return nil, fmt.Errorf("empty thread program in %q", src)
		}
		programs = append(programs, prog)
	}
	return programs, nil
}
