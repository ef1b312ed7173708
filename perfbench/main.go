// Command perfbench is calgo's end-to-end benchmark. It runs one of four
// workloads from a seed, checks every verdict against the answer known by
// construction, and prints its metrics; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same workload runs with spans around every call into the program and
// the metrics are the per-layer ones. --repeat N runs the workload N
// times on consecutive seeds and prints the median and quartiles of each
// metric (the steadiness mode used to set the bounds in BENCHMARK.json).
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runCtx carries one run's settings.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	cald     string // path of the built daemon
	dir      string // scratch directory of this run, inside the checkout
}

// duration is the measured window of the run.
func (rc *runCtx) duration() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload measured.
type report struct {
	attempted, failed int64
	values            map[string]float64
	samples           map[string]int    // sample count behind a metric
	alias             map[string]string // workload-specific name of a uniform metric
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, alias: map[string]string{}}
}

func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// endToEnd lists the end-to-end metrics every workload reports, with the
// unit and direction BENCHMARK.json declares for them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// perLayer lists the per-layer metrics of the traced run. Every traced
// run reports all of them; a layer the workload does not drive reads 0.
var perLayer = []struct{ name, unit string }{
	{"history.parse_ns_per_event", "ns"},
	{"history.prep_ms", "ms"},
	{"history.prep_mb", "MB"},
	{"monitor.ns_per_event", "ns"},
	{"monitor.decided_ratio", "ratio"},
	{"monitor.ineligible", "count"},
	{"monitor.inconclusive", "count"},
	{"check.search_ms_p50", "ms"},
	{"check.search_ms_p99", "ms"},
	{"check.states_per_s", "1/s"},
	{"check.memo_hit_ratio", "ratio"},
	{"check.unknown", "count"},
	{"jobs.submit_ms_p50", "ms"},
	{"jobs.submit_ms_p99", "ms"},
	{"jobs.queue_wait_ms_p99", "ms"},
	{"jobs.run_ms_p50", "ms"},
	{"jobs.run_ms_p99", "ms"},
	{"jobs.client_wait_ms_p50", "ms"},
	{"jobs.polls_per_job", "count"},
	{"jobs.poll_bytes", "bytes"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.rejected_429", "count"},
	{"jobs.gen_late_ms_p99", "ms"},
	{"runstore.open_s", "s"},
	{"durable.bytes_per_job", "bytes"},
	{"stream.engine_ns_per_event.queue", "ns"},
	{"stream.engine_ns_per_event.pqueue", "ns"},
	{"stream.transport_ns_per_event", "ns"},
	{"stream.resident_hwm", "count"},
	{"stream.shed", "count"},
	{"model.invariant_ns", "ns"},
	{"model.invariant_calls", "count"},
	{"model.verify_cal_ns", "ns"},
	{"model.verify_cal_calls", "count"},
	{"sched.self_ratio", "ratio"},
	{"tracing.overhead_pct", "%"},
}

var workloads = map[string]func(*runCtx) (*report, error){
	"batch":   runBatch,
	"service": runService,
	"stream":  runStream,
	"explore": runExplore,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: batch, service, stream or explore")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		traced   = flag.Int("trace", 0, "1 runs with spans and reports the per-layer metrics")
		cald     = flag.String("cald", "", "path of the built cald daemon (service and stream)")
		commit   = flag.String("commit", "", "commit of the program under test (default: a digest of its sources)")
		repeat   = flag.Int("repeat", 0, "steadiness mode: run the workload this many times on consecutive seeds")
		probe    = flag.String("probe", "", "internal: start up for a workload, print ready and exit")
	)
	flag.Parse()
	if *probe != "" {
		return probeReady(*probe)
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want batch, service, stream or explore)\n", *workload)
		return 2
	}
	if *repeat > 0 {
		return steadiness(*repeat, *seed)
	}
	if *commit == "" {
		*commit = sourceDigest()
	}
	stamp, _ := json.Marshal(map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *traced == 1,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit,
	})
	fmt.Printf("stamp %s\n", stamp)

	dir, err := filepath.Abs(filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rc := &runCtx{workload: *workload, seed: *seed, seconds: *seconds, trace: *traced == 1, cald: *cald, dir: dir}
	rep, err := workloads[*workload](rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	return printResult(rc, rep)
}

func printResult(rc *runCtx, rep *report) int {
	list := endToEnd
	if rc.trace {
		list = perLayer
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v := rep.values[m.name]
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		name := m.name
		if a := rep.alias[m.name]; a != "" {
			name += " (" + a + ")"
		}
		fmt.Printf("%-44s %16.6g %-6s samples=%d\n", name, v, m.unit, rep.samples[m.name])
	}
	if !rc.trace {
		fmt.Printf("%-44s %16.6g %-6s attempted=%d\n", "failed_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted)
	}
	if rep.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: nothing was attempted")
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// errWrong aborts a run on a verdict that contradicts the known answer.
var errWrong = errors.New("wrong verdict")

// setupProbes is how many times a run measures its set-up; setup_s is
// the median.
const setupProbes = 15

// probeSetup measures set-up for the in-process workloads: a fresh
// process is started, builds what the workload needs before its first
// input, and reports ready. It returns the median over setupProbes.
func probeSetup(workload string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var samples []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "--probe", workload)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, err := bufio.NewReader(out).ReadString('\n')
		took := time.Since(start)
		werr := cmd.Wait()
		if err != nil || strings.TrimSpace(line) != "ready" || werr != nil {
			return 0, fmt.Errorf("set-up probe failed: %q %v %v", line, err, werr)
		}
		samples = append(samples, took.Seconds())
	}
	return percentile(samples, 0.5), nil
}

// probeReady is the probe process: it builds the workload's checkers or
// models, then reports ready.
func probeReady(workload string) int {
	switch workload {
	case "batch":
		if _, err := newBatchCheckers(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	case "explore":
		for _, m := range exploreModels() {
			m.build()
		}
	default:
		return 2
	}
	fmt.Println("ready")
	return 0
}

// vmHWM reads the peak resident set size of a process in MB.
func vmHWM(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rssWindowLen is the window of the peak-RSS samples.
const rssWindowLen = 3 * time.Second

// rssWindows samples a process's peak resident set size window by window:
// every rssWindowLen it reads VmHWM and resets it, so each sample is the
// peak of one window. The stop function returns the median over full
// windows in MB, which one GC cycle landing early or late moves less than
// the peak of the whole run. Where the reset is not permitted it returns
// the peak of the whole run.
func rssWindows(pid string) (stop func() float64) {
	reset := func() error { return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0) }
	windowed := reset() == nil
	quit := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var peaks []float64
		t := time.NewTicker(rssWindowLen)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if windowed {
					peaks = append(peaks, vmHWM(pid))
					_ = reset()
				}
			case <-quit:
				if len(peaks) == 0 {
					peaks = append(peaks, vmHWM(pid))
				}
				done <- peaks
				return
			}
		}
	}()
	return func() float64 {
		close(quit)
		peaks := <-done
		fmt.Printf("peak RSS per %v window (MB): %.1f\n", rssWindowLen, peaks)
		return percentile(peaks, 0.5)
	}
}

// sourceDigest names the program under test when no commit is given: a
// digest of the Go sources and module files of the checkout.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// steadiness re-runs this command n times on consecutive seeds and prints
// the median, quartiles and spread of every metric of the result lines.
func steadiness(n int, seed int64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	vals := map[string][]float64{}
	var names []string
	for i := 0; i < n; i++ {
		var args []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "repeat" && f.Name != "seed" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		args = append(args, "--seed", strconv.FormatInt(seed+int64(i), 10))
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d failed: %v\n", i, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res struct {
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: %v\n", i, err)
			return 1
		}
		for k, v := range res.Metrics {
			if _, seen := vals[k]; !seen {
				names = append(names, k)
			}
			vals[k] = append(vals[k], v.Value)
		}
		fmt.Fprintf(os.Stderr, "run %d/%d done\n", i+1, n)
	}
	sort.Strings(names)
	summary := map[string]map[string]float64{}
	fmt.Printf("%-36s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, k := range names {
		q := quartiles(vals[k])
		spread := ratio(q[2]-q[0], q[1])
		summary[k] = map[string]float64{"q1": q[0], "median": q[1], "q3": q[2], "spread": spread}
		fmt.Printf("%-36s %12.6g %12.6g %12.6g %8.4f\n", k, q[0], q[1], q[2], spread)
	}
	b, _ := json.Marshal(map[string]any{"runs": n, "metrics": summary})
	fmt.Println(string(b))
	return 0
}
