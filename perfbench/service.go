package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"calgo/internal/history"
	"calgo/internal/jobs"
	"calgo/internal/runstore"
)

// The service load is an open loop: arrivals are due at a fixed rate,
// whatever the daemon's backlog, and each is one submit-and-poll at the
// client's default poll interval, timed from when it was due. The rate is
// about half of what the daemon sustains on this mix on two cores, so the
// backlog stays flat; a job answered later than serviceLimit counts as
// failed. The mix is stratified so every seed sends the same shares:
// every fourth arrival repeats an earlier CA-object submission, exactly
// or with its threads renamed, every fiftieth is a 5k–50k-event
// collection history, and the rest are CA-object histories: eleven in
// twelve exchanger and synchronous-queue histories of caMinRounds to
// caMaxRounds rounds, one in twelve an immediate-snapshot history of 2–6
// threads.
//
// The rounds are sized so that those jobs take a few milliseconds to
// check (about 3–30 ms here): longer than the client needs to reach its
// first poll, well within one poll interval. About two thirds of the
// arrivals therefore wait exactly one poll, and the cache hits and
// snapshots are answered by the submission or the first poll. The median
// lies inside the one-poll group, as for a job a `calcheck -remote` user
// waits on, rather than among the few-millisecond round trips, which
// double whenever the host is slowed.
const (
	serviceRate  = 50.0 // arrivals per second
	serviceLimit = time.Second

	caMinRounds = 112
	caMaxRounds = 144

	resubmitEvery   = 4
	collectionEvery = 50
	maxInFlight     = 1024

	// latencyWindow slices the arrivals for the median latency: the
	// reported p50 is the median of the windows' medians.
	latencyWindow = 1500 * time.Millisecond
)

// arrival is one scheduled submission.
type arrival struct {
	due time.Duration // offset from the start of the phase
	in  Input
}

// serviceSchedule draws the arrivals of a window of length d.
func serviceSchedule(r *rand.Rand, d time.Duration) ([]arrival, error) {
	n := int(serviceRate * d.Seconds())
	out := make([]arrival, 0, n)
	var ca []int // indices of CA-object arrivals, the ones resubmitted
	collections, cas := 0, 0
	for i := 0; i < n; i++ {
		a := arrival{due: time.Duration(float64(i) / serviceRate * float64(time.Second))}
		switch {
		case i%resubmitEvery == resubmitEvery-1 && len(ca) > 0:
			a.in = out[ca[r.Intn(len(ca))]].in
			if r.Intn(2) == 0 {
				text, err := renameThreads(a.in.Text, 100)
				if err != nil {
					return nil, err
				}
				a.in.Text = text
			}
		case i%collectionEvery == 1:
			k := collections
			collections++
			ops := stratified(r, k%10, 10, 2_500, 25_000)
			sh := shape{kind: []string{"queue", "set", "pqueue"}[k%3], ops: ops, threads: 2 + r.Intn(7), dupAt: -1, defectAt: -1}
			if k%5 == 4 {
				sh.defectAt = ops/2 + r.Intn(ops-ops/2)
			}
			a.in = collectionInput(r, fmt.Sprintf("collection-%d", i), sh)
		default:
			unsat := cas%5 == 4
			name := fmt.Sprintf("ca-%d", i)
			switch rounds, k := caMinRounds+r.Intn(caMaxRounds-caMinRounds+1), cas%12; {
			case k == 11:
				a.in = genSnapshot(r, name, unsat)
			case k%2 == 0:
				a.in = genExchanger(r, name, rounds, unsat)
			default:
				a.in = genSyncQueue(r, name, rounds, unsat)
			}
			cas++
			ca = append(ca, i)
		}
		out = append(out, a)
	}
	return out, nil
}

// countingTransport counts what the client's polls cost and how often
// the daemon shed a request.
type countingTransport struct {
	base                   http.RoundTripper
	polls, pollBytes, shed atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		t.shed.Add(1)
	}
	if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/jobs/") {
		t.polls.Add(1)
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.pollBytes}
	}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// serviceStats accumulates one phase of the service workload.
type serviceStats struct {
	mu                     sync.Mutex
	latencyMS              []float64
	latWindow              []int // latency window of each latencyMS sample
	attempted, failed, ok  int64
	cached, uncached       int64
	wrong                  error
	elapsed                time.Duration // first due time to last verdict
	submitMS, queueMS      []float64
	runMS, clientWaitMS    []float64
	lateMS                 []float64
	polls, pollBytes, shed int64
}

// servicePhase plays the schedule against the daemon at base.
func servicePhase(base string, sched []arrival, tr *tracer) (*serviceStats, error) {
	ct := &countingTransport{base: &http.Transport{
		MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU(),
	}}
	client := jobs.NewClient(base)
	client.HTTP = &http.Client{Transport: ct, Timeout: 30 * time.Second}
	st := &serviceStats{}
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range sched {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		st.mu.Lock()
		st.lateMS = append(st.lateMS, float64(late.Nanoseconds())/1e6)
		st.mu.Unlock()
		select {
		case sem <- struct{}{}:
		default:
			st.record(a, due, jobs.Job{}, fmt.Errorf("client: more than %d jobs in flight", maxInFlight), 0)
			continue
		}
		wg.Add(1)
		go func(a arrival, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			root := tr.begin("service.job", 0, 0)
			req := jobs.Request{Spec: a.in.Spec, Object: a.in.Object, Threads: a.in.Threads,
				Mode: "cal", Engine: "auto", History: a.in.Text}
			sub := tr.begin("jobs.submit", root.id(), root.req())
			t0 := time.Now()
			job, err := client.Submit(context.Background(), req)
			submit := time.Since(t0)
			sub.end()
			if err == nil && !job.State.Terminal() {
				wt := tr.begin("jobs.wait", root.id(), root.req())
				job, err = client.Wait(context.Background(), job.ID)
				wt.end()
			}
			root.end()
			st.record(a, due, job, err, submit)
		}(a, due)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.polls, st.pollBytes, st.shed = ct.polls.Load(), ct.pollBytes.Load(), ct.shed.Load()
	return st, st.wrong
}

// record books one arrival's outcome.
func (st *serviceStats) record(a arrival, due time.Time, job jobs.Job, err error, submit time.Duration) {
	seen := time.Now()
	lat := seen.Sub(due)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	st.latencyMS = append(st.latencyMS, float64(lat.Nanoseconds())/1e6)
	st.latWindow = append(st.latWindow, int(a.due/latencyWindow))
	want := "OK"
	if !a.in.Sat {
		want = "VIOLATION"
	}
	switch {
	case err != nil || job.Verdict == "UNKNOWN" || job.State != jobs.StateDone:
		st.failed++
		return
	case job.Verdict != want:
		if st.wrong == nil {
			st.wrong = fmt.Errorf("%w: %s (%s) answered %s, constructed %s", errWrong, a.in.Name, a.in.Spec, job.Verdict, want)
		}
		return
	case lat > serviceLimit:
		st.failed++
	default:
		st.ok++
	}
	st.submitMS = append(st.submitMS, float64(submit.Nanoseconds())/1e6)
	if job.Cached {
		st.cached++
		return
	}
	st.uncached++
	st.queueMS = append(st.queueMS, float64(job.StartedNS-job.SubmittedNS)/1e6)
	st.runMS = append(st.runMS, float64(job.FinishedNS-job.StartedNS)/1e6)
	st.clientWaitMS = append(st.clientWaitMS, float64(seen.UnixNano()-job.FinishedNS)/1e6)
}

// windowedP50 is the median over latency windows of each window's median.
func (st *serviceStats) windowedP50() float64 {
	byWindow := map[int][]float64{}
	for i, ms := range st.latencyMS {
		byWindow[st.latWindow[i]] = append(byWindow[st.latWindow[i]], ms)
	}
	var p50s []float64
	for _, ms := range byWindow {
		p50s = append(p50s, percentile(ms, 0.5))
	}
	return percentile(p50s, 0.5)
}

func (st *serviceStats) meanLatency() float64 { return sum(st.latencyMS) / float64(len(st.latencyMS)) }

func runService(rc *runCtx) (*report, error) {
	rep := newReport()
	du, err := seedDurable(rc.dir, rc.seed)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(rc.seed))
	runtime.GC()
	d, setup, err := startServing(rc, du)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if !rc.trace {
		sched, err := serviceSchedule(r, rc.duration())
		if err != nil {
			return nil, err
		}
		st, err := servicePhase(d.base, sched, nil)
		if err != nil {
			return nil, err
		}
		rep.attempted, rep.failed = st.attempted, st.failed
		rep.set("setup_s", setup, setupProbes)
		// Goodput over the time until the last verdict, so a growing
		// backlog lowers it even though arrivals keep their fixed rate.
		rep.set("throughput_per_s", float64(st.ok)/st.elapsed.Seconds(), int(st.attempted))
		rep.alias["throughput_per_s"] = "jobs_per_s, correct within the limit"
		setLatency(rep, st.latencyMS)
		rep.set("latency_p50_ms", st.windowedP50(), len(st.latencyMS))
		rep.alias["latency_p50_ms"] = "median of 1.5-s window medians"
		// The daemon keeps every job (Manager.jobs never evicts), so its
		// RSS grows through the run and the peak is the run's end.
		rep.set("peak_rss_mb", vmHWM(d.pid()), 1)
		rep.set("ok_ratio", ratio(float64(st.ok), float64(st.attempted)), int(st.attempted))
		return rep, d.stop()
	}
	before := du.bytes()
	plainSched, err := serviceSchedule(r, rc.duration()*3/10)
	if err != nil {
		return nil, err
	}
	plain, err := servicePhase(d.base, plainSched, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	sched, err := serviceSchedule(r, rc.duration()*7/10)
	if err != nil {
		return nil, err
	}
	st, err := servicePhase(d.base, sched, tr)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	grown := du.bytes() - before
	rep.attempted, rep.failed = st.attempted, st.failed
	// The load is an open loop, so tracing shows as latency, not rate.
	rep.set("tracing.overhead_pct", (ratio(st.meanLatency(), plain.meanLatency())-1)*100, int(st.attempted))
	rep.set("jobs.submit_ms_p50", percentile(st.submitMS, 0.5), len(st.submitMS))
	rep.set("jobs.submit_ms_p99", percentile(st.submitMS, 0.99), len(st.submitMS))
	rep.set("jobs.queue_wait_ms_p99", percentile(st.queueMS, 0.99), len(st.queueMS))
	rep.set("jobs.run_ms_p50", percentile(st.runMS, 0.5), len(st.runMS))
	rep.set("jobs.run_ms_p99", percentile(st.runMS, 0.99), len(st.runMS))
	rep.set("jobs.client_wait_ms_p50", percentile(st.clientWaitMS, 0.5), len(st.clientWaitMS))
	rep.set("jobs.polls_per_job", ratio(float64(st.polls), float64(st.attempted)), int(st.attempted))
	rep.set("jobs.poll_bytes", ratio(float64(st.pollBytes), float64(st.attempted)), int(st.attempted))
	rep.set("jobs.cache_hit_ratio", ratio(float64(st.cached), float64(st.cached+st.uncached)), int(st.cached+st.uncached))
	rep.set("jobs.rejected_429", float64(st.shed), int(st.attempted))
	rep.set("jobs.gen_late_ms_p99", percentile(st.lateMS, 0.99), len(st.lateMS))
	rep.set("durable.bytes_per_job", ratio(float64(grown), float64(plain.uncached+st.uncached)), int(plain.uncached+st.uncached))
	openS, err := measureStoreOpen(du)
	if err != nil {
		return nil, err
	}
	rep.set("runstore.open_s", openS, setupProbes)
	return rep, tr.write(traceFile(rc))
}

// measureStoreOpen times runstore.OpenFS on fresh copies of the seeded
// store and returns the median in seconds.
func measureStoreOpen(du *durable) (float64, error) {
	var samples []float64
	for i := 0; i < setupProbes; i++ {
		if err := du.fresh(); err != nil {
			return 0, err
		}
		start := time.Now()
		st, err := runstore.OpenFS(du.store, runstore.FSOptions{})
		took := time.Since(start)
		if err != nil {
			return 0, err
		}
		if st.Len() != seedRecords {
			st.Close()
			return 0, fmt.Errorf("%w: seeded store replayed %d records, want %d", errWrong, st.Len(), seedRecords)
		}
		if err := st.Close(); err != nil {
			return 0, err
		}
		samples = append(samples, took.Seconds())
	}
	return percentile(samples, 0.5), nil
}

// renameThreads returns the history text with every thread id shifted, the same history
// as far as the verdict cache is concerned.
func renameThreads(text string, by int) (string, error) {
	h, err := history.Parse(text)
	if err != nil {
		return "", err
	}
	for i := range h {
		h[i].Thread += history.ThreadID(by)
	}
	return history.Format(h), nil
}
