package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"calgo/internal/history"
	"calgo/internal/spec"
	"calgo/internal/stream"
)

// The stream load is two closed loops on one daemon, one connection
// each: each posts its stream's next fixed-size batch once the previous
// one is answered, and opens the next stream once the last one closed.
// One loop feeds queue streams (the incremental stepper) carrying a
// defect near their end, the other priority-queue streams (the replay
// stepper, re-checked at quiescent cuts) that must end Sat. The loops do
// not wait for each other, so both run for the whole measured window.
const (
	streamQueueOps  = 50_000 // 100k events
	streamPQueueOps = 12_500 // 25k events
	streamThreads   = 4
	streamBatch     = 1_000 // events per POST
)

// streamInput is one stream's history cut into batches.
type streamInput struct {
	in      Input
	spec    string
	batches []string
}

func newStreamInput(r *rand.Rand, kind string, ops int, unsat bool) streamInput {
	sh := shape{kind: kind, ops: ops, threads: streamThreads, dupAt: -1, defectAt: -1}
	if unsat {
		// Near the end, so the stepper works through almost all of it.
		sh.defectAt = ops - ops/200
	}
	in := collectionInput(r, kind+"-stream", sh)
	lines := strings.SplitAfter(in.Text, "\n")
	si := streamInput{in: in, spec: kind}
	for i := 0; i < len(lines); i += streamBatch {
		si.batches = append(si.batches, strings.Join(lines[i:min(i+streamBatch, len(lines))], ""))
	}
	return si
}

// streamDoc is the part of a calgo.stream/v1 document the benchmark reads.
type streamDoc struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Verdict struct {
		Status  string `json:"status"`
		AtEvent int64  `json:"at_event"`
		Events  int64  `json:"events"`
		Final   bool   `json:"final"`
		Display string `json:"display"`
	} `json:"verdict"`
}

// streamStats accumulates one phase of the stream workload: the POSTs
// that started within its window.
type streamStats struct {
	mu        sync.Mutex
	latencyMS []float64
	events    int64
	posts     int64
	window    time.Duration
	// HTTP time and events per stream kind, for the traced phase.
	postNS     map[string]float64
	postEvents map[string]float64
}

func (st *streamStats) add(kind string, took time.Duration, events int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.latencyMS = append(st.latencyMS, float64(took.Nanoseconds())/1e6)
	st.events += int64(events)
	st.posts++
	st.postNS[kind] += float64(took.Nanoseconds())
	st.postEvents[kind] += float64(events)
}

// rate is the events per second of the window.
func (st *streamStats) rate() float64 { return ratio(float64(st.events), st.window.Seconds()) }

func postJSON(hc *http.Client, url, body string, want int) (streamDoc, error) {
	var doc streamDoc
	resp, err := hc.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return doc, err
	}
	if resp.StatusCode != want {
		return doc, fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return doc, json.Unmarshal(b, &doc)
}

// feedStream opens one stream, posts every batch, closes it and checks
// the final verdict against the known answer. The POSTs that start
// before the deadline are measured; the rest of a stream under way at the
// deadline is fed and checked too, but not measured.
func feedStream(base string, hc *http.Client, si streamInput, deadline time.Time, tr *tracer, st *streamStats) error {
	doc, err := postJSON(hc, base+"/streams", fmt.Sprintf(`{"spec":%q,"object":%q}`, si.spec, si.in.Object), http.StatusCreated)
	if err != nil {
		return err
	}
	root := tr.begin("stream.feed", 0, 0)
	for _, b := range si.batches {
		measured := time.Now().Before(deadline)
		sp := tr.begin("stream.post", root.id(), root.req())
		start := time.Now()
		if _, err := postJSON(hc, base+"/streams/"+doc.ID+"/events", b, http.StatusOK); err != nil {
			return err
		}
		took := time.Since(start)
		sp.end()
		if measured {
			st.add(si.spec, took, strings.Count(b, "\n"))
		}
	}
	root.end()
	final, err := postJSON(hc, base+"/streams/"+doc.ID+"/close", "", http.StatusOK)
	if err != nil {
		return err
	}
	return checkStreamVerdict(si, final.Verdict.Status, final.Verdict.AtEvent, final.Verdict.Events)
}

// checkStreamVerdict compares a final stream verdict with the answer known
// by construction: the defective stream must report VIOLATION at exactly
// the planted event, the other must end Sat.
func checkStreamVerdict(si streamInput, status string, at, events int64) error {
	switch {
	case events != int64(si.in.Events):
		return fmt.Errorf("%w: %s stream counted %d events, fed %d", errWrong, si.spec, events, si.in.Events)
	case si.in.Sat && status != stream.SatSoFar.String():
		return fmt.Errorf("%w: %s stream ended %s, constructed Sat", errWrong, si.spec, status)
	case !si.in.Sat && (status != stream.Violation.String() || at != int64(si.in.DefectEvent)):
		return fmt.Errorf("%w: %s stream ended %s at event %d, defect planted at event %d", errWrong, si.spec, status, at, si.in.DefectEvent)
	}
	return nil
}

// streamPhase runs one closed loop per input, each on its own
// connection, for the window d.
func streamPhase(base string, inputs []streamInput, d time.Duration, tr *tracer) (*streamStats, error) {
	hc := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU(),
	}}
	st := &streamStats{window: d, postNS: map[string]float64{}, postEvents: map[string]float64{}}
	deadline := time.Now().Add(d)
	errs := make([]error, len(inputs))
	var wg sync.WaitGroup
	for i, si := range inputs {
		wg.Add(1)
		go func(i int, si streamInput) {
			defer wg.Done()
			for errs[i] == nil && time.Now().Before(deadline) {
				errs[i] = feedStream(base, hc, si, deadline, tr, st)
			}
		}(i, si)
	}
	wg.Wait()
	return st, errors.Join(errs...)
}

// engineNSPerEvent replays a stream's events through stream.Feed in
// process, with the daemon's default window and cadence, and returns the
// time per event.
func engineNSPerEvent(si streamInput) (float64, error) {
	h, err := history.Parse(si.in.Text)
	if err != nil {
		return 0, err
	}
	var sp spec.Spec = spec.NewQueue(history.ObjectID(si.in.Object))
	if si.spec == "pqueue" {
		sp = spec.NewPQueue(history.ObjectID(si.in.Object))
	}
	start := time.Now()
	s, err := stream.New(sp, stream.Config{})
	if err != nil {
		return 0, err
	}
	if err := s.FeedAll(h); err != nil {
		return 0, err
	}
	v := s.Close()
	took := time.Since(start)
	if err := checkStreamVerdict(si, v.Status.String(), v.AtEvent, v.Events); err != nil {
		return 0, err
	}
	return float64(took.Nanoseconds()) / float64(len(h)), nil
}

func runStream(rc *runCtx) (*report, error) {
	rep := newReport()
	du, err := seedDurable(rc.dir, rc.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	d, setup, err := startServing(rc, du)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	r := rand.New(rand.NewSource(rc.seed))
	inputs := []streamInput{
		newStreamInput(r, "queue", streamQueueOps, true),
		newStreamInput(r, "pqueue", streamPQueueOps, false),
	}
	runtime.GC()
	if !rc.trace {
		rss := rssWindows(d.pid())
		st, err := streamPhase(d.base, inputs, rc.duration(), nil)
		peak := rss()
		if err != nil {
			return nil, err
		}
		rep.attempted = st.posts
		rep.set("setup_s", setup, setupProbes)
		rep.set("throughput_per_s", st.rate(), int(st.posts))
		rep.alias["throughput_per_s"] = "events_per_s over the window"
		setLatency(rep, st.latencyMS)
		rep.alias["latency_p50_ms"] = "per batch POST"
		rep.alias["latency_p99_ms"] = "per batch POST"
		rep.set("peak_rss_mb", peak, int(rc.duration()/rssWindowLen))
		rep.set("ok_ratio", 1, int(st.posts))
		return rep, d.stop()
	}
	tr := newTracer()
	st, err := streamPhase(d.base, inputs, rc.duration()/2, tr)
	if err != nil {
		return nil, err
	}
	plain, err := streamPhase(d.base, inputs, rc.duration()/2, nil)
	if err != nil {
		return nil, err
	}
	gauges, err := d.scrape("calgo_stream_resident_hwm", "calgo_stream_shed_total")
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	rep.attempted = st.posts
	// The phases have equal windows; tracing shows as a lower event rate.
	rep.set("tracing.overhead_pct", (ratio(plain.rate(), st.rate())-1)*100, int(st.posts))
	rep.set("stream.resident_hwm", gauges["calgo_stream_resident_hwm"], 1)
	rep.set("stream.shed", gauges["calgo_stream_shed_total"], 1)
	var transport, events float64
	for _, si := range inputs {
		ns, err := engineNSPerEvent(si)
		if err != nil {
			return nil, err
		}
		rep.set("stream.engine_ns_per_event."+si.spec, ns, si.in.Events)
		transport += st.postNS[si.spec] - ns*st.postEvents[si.spec]
		events += st.postEvents[si.spec]
	}
	rep.set("stream.transport_ns_per_event", ratio(transport, events), int(events))
	return rep, tr.write(traceFile(rc))
}
