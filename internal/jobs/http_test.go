package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"calgo/internal/obs/serve"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		drain(t, m)
	})
	return m, srv
}

func postJob(t *testing.T, url string, req Request) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) Job {
	t.Helper()
	defer resp.Body.Close()
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decoding job: %v", err)
	}
	return j
}

func TestHTTPSubmitPollLifecycle(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	resp := postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(3, 4)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	job := decodeJob(t, resp)
	if job.Schema != Schema || job.ID == "" {
		t.Fatalf("submitted job document = %+v", job)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", r.StatusCode)
		}
		job = decodeJob(t, r)
		if job.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if job.Verdict != "OK" {
		t.Errorf("verdict = %q detail %q, want OK", job.Verdict, job.Detail)
	}

	// The cached resubmission answers 200 immediately.
	resp = postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(3, 4)})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cached resubmit status = %d, want 200", resp.StatusCode)
	}
	if again := decodeJob(t, resp); !again.Cached || again.Verdict != "OK" {
		t.Errorf("cached resubmit = %+v, want cached OK", again)
	}

	// The list shows both jobs.
	r, err := http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var all []Job
	if err := json.NewDecoder(r.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("list has %d jobs, want 2", len(all))
	}
}

func TestHTTPRequestErrors(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, MaxHistoryBytes: 512})

	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d, want 400", resp.StatusCode)
	}

	resp = postJob(t, srv.URL, Request{Spec: "no-such-spec", History: satHistory(1, 2)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown spec status = %d, want 400", resp.StatusCode)
	}

	resp = postJob(t, srv.URL, Request{Spec: "exchanger", History: strings.Repeat("#", 1<<20)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d, want 413", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/jobs/j-404404")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPRateLimit429(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, Rate: 0.5, Burst: 1, CacheEntries: -1})

	resp := postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(1, 2)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", resp.StatusCode)
	}
	resp = postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(3, 4)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive whole-second count", resp.Header.Get("Retry-After"))
	}

	// A distinct client identity is admitted despite the first one's debt.
	body, _ := json.Marshal(Request{Spec: "exchanger", History: satHistory(5, 6)})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/jobs", bytes.NewReader(body))
	req.Header.Set(ClientHeader, "someone-else")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted {
		t.Errorf("other client status = %d, want 202", r2.StatusCode)
	}
}

func TestHTTPDraining503(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1})
	drain(t, m)
	resp := postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(1, 2)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 must carry Retry-After")
	}
}

func TestHTTPCancel(t *testing.T) {
	release := make(chan struct{}, 8)
	m, srv := newTestServer(t, Config{QueueDepth: 4, Workers: 1, CacheEntries: -1,
		OnDone: func(Job) { <-release }})
	t.Cleanup(func() { close(release) })

	first := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(1, 2)}))
	waitTerminal(t, m, first.ID) // worker now blocked in OnDone

	queued := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(3, 4)}))
	resp, err := http.Post(srv.URL+"/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", resp.StatusCode)
	}
	if j := decodeJob(t, resp); j.State != StateCanceled {
		t.Errorf("canceled job state = %s", j.State)
	}

	resp, err = http.Post(srv.URL+"/jobs/j-404404/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown status = %d, want 404", resp.StatusCode)
	}
	release <- struct{}{}
}

// sseLines reads SSE lines, forwarding each non-blank line.
func sseLines(r *bufio.Scanner, out chan<- string) {
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if line != "" {
			out <- line
		}
	}
	close(out)
}

// TestHTTPWatchSSE pins the streaming contract: an immediate snapshot
// frame, frames per transition, then end-of-stream after the terminal
// frame.
func TestHTTPWatchSSE(t *testing.T) {
	release := make(chan struct{}, 8)
	m, srv := newTestServer(t, Config{QueueDepth: 4, Workers: 1, CacheEntries: -1,
		OnDone: func(Job) { <-release }})
	t.Cleanup(func() { close(release) })

	first := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(1, 2)}))
	waitTerminal(t, m, first.ID) // block the worker
	queued := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(3, 4)}))

	resp, err := http.Get(srv.URL + "/jobs/" + queued.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type = %q", ct)
	}
	lines := make(chan string, 64)
	go sseLines(bufio.NewScanner(resp.Body), lines)

	// Snapshot frame first: the job is still pending.
	var snap Job
	firstLine := <-lines
	if !strings.HasPrefix(firstLine, "data: ") {
		t.Fatalf("first frame = %q, want data frame", firstLine)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(firstLine, "data: ")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != StatePending {
		t.Fatalf("snapshot state = %s, want pending", snap.State)
	}

	release <- struct{}{} // unblock: the watched job runs
	release <- struct{}{}

	var last Job
	for line := range lines { // stream ends after the terminal frame
		if strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !last.State.Terminal() || last.Verdict != "OK" {
		t.Errorf("terminal frame = state %s verdict %q, want done OK", last.State, last.Verdict)
	}
}

// TestHTTPWatchClientDisconnect pins that a watcher who goes away
// mid-stream releases its subscription instead of leaking it.
func TestHTTPWatchClientDisconnect(t *testing.T) {
	release := make(chan struct{}, 8)
	m, srv := newTestServer(t, Config{QueueDepth: 4, Workers: 1, CacheEntries: -1,
		OnDone: func(Job) { <-release }})
	t.Cleanup(func() { close(release) })

	first := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(1, 2)}))
	waitTerminal(t, m, first.ID)
	queued := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(3, 4)}))

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/jobs/"+queued.ID+"?watch=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the snapshot frame, then hang up.
	br := bufio.NewScanner(resp.Body)
	if !br.Scan() {
		t.Fatal("no snapshot frame before disconnect")
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		n := subscribers(m, queued.ID)
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnected watcher still subscribed (%d)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	release <- struct{}{}
	release <- struct{}{}
}

// TestHTTPWatchDrainEvent pins that draining ends watch streams with an
// explicit drain event instead of silently hanging up.
func TestHTTPWatchDrainEvent(t *testing.T) {
	release := make(chan struct{}, 8)
	m, err := New(Config{QueueDepth: 4, Workers: 1, CacheEntries: -1,
		OnDone: func(Job) { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()
	defer close(release)

	first := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(1, 2)}))
	waitTerminal(t, m, first.ID)
	queued := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(3, 4)}))

	resp, err := http.Get(srv.URL + "/jobs/" + queued.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string, 64)
	go sseLines(bufio.NewScanner(resp.Body), lines)
	<-lines // snapshot frame

	// Drain with the worker still parked in OnDone: the stream must end
	// via the stop signal, not via the watched job finishing.
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()

	sawDrain := false
	for line := range lines {
		if line == "event: drain" {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Error("watch stream ended without the drain event")
	}
}

// TestHTTPMetricsIntegration pins the obs wiring end to end: the
// manager's counters land in the shared registry under the names the CI
// smoke scrapes from /metrics.
func TestHTTPMetricsIntegration(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1})
	job := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(3, 4)}))
	waitTerminal(t, m, job.ID)
	resp := postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(3, 4)})
	resp.Body.Close()

	var buf bytes.Buffer
	if err := serve.WritePrometheus(&buf, m.cfg.Metrics.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"calgo_jobs_submitted_total 1", "calgo_jobs_cache_hits_total 1", "calgo_jobs_completed_total 1"} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, text)
		}
	}
}

// getWait sends GET /jobs/{id}?wait=<wait> and returns the status, the
// decoded document (on 200) and how long the answer took. It reports
// failures with t.Error, so tests may call it from other goroutines.
func getWait(t *testing.T, url, id, wait string) (int, Job, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(url + "/jobs/" + id + "?wait=" + wait)
	if err != nil {
		t.Error(err)
		return 0, Job{}, 0
	}
	defer resp.Body.Close()
	var j Job
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Errorf("decoding job: %v", err)
		}
	}
	return resp.StatusCode, j, time.Since(start)
}

// answer is one getWait result.
type answer struct {
	code int
	job  Job
	took time.Duration
}

// goGetWait runs getWait on its own goroutine and delivers the answer.
func goGetWait(t *testing.T, url, id, wait string) <-chan answer {
	got := make(chan answer, 1)
	go func() {
		code, job, took := getWait(t, url, id, wait)
		got <- answer{code, job, took}
	}()
	return got
}

// longPollFixture starts a one-worker server whose worker is parked in
// OnDone after a first job, and queues a second job behind it: the
// returned job stays pending until release gets a value.
func longPollFixture(t *testing.T) (*Manager, *httptest.Server, chan struct{}, Job) {
	t.Helper()
	release := make(chan struct{}, 8)
	m, srv := newTestServer(t, Config{QueueDepth: 4, Workers: 1, CacheEntries: -1,
		OnDone: func(Job) { <-release }})
	t.Cleanup(func() { close(release) })
	first := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(1, 2)}))
	waitTerminal(t, m, first.ID)
	queued := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(3, 4)}))
	return m, srv, release, queued
}

// subscribers counts id's open Watch subscriptions in the job table.
func subscribers(m *Manager, id string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.byID[id]; ok {
		return len(e.subs)
	}
	return 0
}

// subscribed waits until id has a Watch subscriber, such as an open
// long-poll, and reports whether one appeared within 5s.
func subscribed(m *Manager, id string) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if subscribers(m, id) > 0 {
			return true
		}
	}
	return false
}

// TestHTTPLongPollReturnsAtTerminal pins the point of ?wait=: the
// answer comes when the job is decided, not when the bound runs out.
func TestHTTPLongPollReturnsAtTerminal(t *testing.T) {
	m, srv, release, queued := longPollFixture(t)

	got := goGetWait(t, srv.URL, queued.ID, "10s")
	if !subscribed(m, queued.ID) {
		t.Fatal("the long-poll never subscribed to the job")
	}
	release <- struct{}{} // the worker runs the queued job
	release <- struct{}{}
	a := <-got
	if a.code != http.StatusOK || a.job.State != StateDone || a.job.Verdict != "OK" {
		t.Fatalf("long-poll = %d state %s verdict %q, want 200 done OK", a.code, a.job.State, a.job.Verdict)
	}
	if a.took >= 5*time.Second {
		t.Errorf("long-poll took %v; it must answer at the terminal transition, not the 10s bound", a.took)
	}
}

// TestHTTPLongPollBoundReturnsSnapshot: when the wait runs out first,
// the answer is the current, non-terminal snapshot.
func TestHTTPLongPollBoundReturnsSnapshot(t *testing.T) {
	m, srv, _, queued := longPollFixture(t)
	code, job, took := getWait(t, srv.URL, queued.ID, "150ms")
	if code != http.StatusOK || job.ID != queued.ID || job.State != StatePending {
		t.Fatalf("bounded long-poll = %d %+v, want 200 with the pending snapshot", code, job)
	}
	if took < 150*time.Millisecond || took >= 5*time.Second {
		t.Errorf("bounded long-poll took %v, want about 150ms", took)
	}
	// The expired wait leaves no subscription behind, not even an
	// empty list.
	m.mu.Lock()
	held := m.byID[queued.ID].subs != nil
	m.mu.Unlock()
	if held {
		t.Error("an expired long-poll left its job a subscription list in the table")
	}
}

// TestHTTPLongPollTerminalAnswersAtOnce: a job that is already decided
// does not wait at all.
func TestHTTPLongPollTerminalAnswersAtOnce(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1})
	job := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: unsatHistory}))
	waitTerminal(t, m, job.ID)
	code, got, took := getWait(t, srv.URL, job.ID, "30s")
	if code != http.StatusOK || got.State != StateDone || got.Verdict != "VIOLATION" {
		t.Fatalf("long-poll of a finished job = %d %+v", code, got)
	}
	if took >= 5*time.Second {
		t.Errorf("long-poll of a finished job took %v", took)
	}
}

// TestHTTPLongPollReleasedByDrain: draining answers an open long-poll
// with the pending snapshot at once instead of holding it to the bound.
func TestHTTPLongPollReleasedByDrain(t *testing.T) {
	m, srv, release, queued := longPollFixture(t)

	got := goGetWait(t, srv.URL, queued.ID, "20s")
	if !subscribed(m, queued.ID) {
		t.Fatal("the long-poll never subscribed to the job")
	}
	// The worker stays parked in OnDone, so only the drain can end the
	// wait.
	drained := make(chan int, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	a := <-got
	if a.code != http.StatusOK || a.job.State != StatePending {
		t.Errorf("long-poll during drain = %d state %s, want 200 pending", a.code, a.job.State)
	}
	if a.took >= 10*time.Second {
		t.Errorf("drain released the long-poll after %v, want promptly", a.took)
	}
	release <- struct{}{} // the parked worker exits, so Drain returns
	if pending := <-drained; pending != 1 {
		t.Errorf("Drain left %d pending jobs, want 1", pending)
	}
}

// TestHTTPLongPollBadRequests: an unknown id is 404, a malformed or
// negative wait 400.
func TestHTTPLongPollBadRequests(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1})
	job := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(1, 2)}))
	waitTerminal(t, m, job.ID)

	if code, _, _ := getWait(t, srv.URL, "j-404404", "1s"); code != http.StatusNotFound {
		t.Errorf("long-poll of an unknown id = %d, want 404", code)
	}
	for _, bad := range []string{"bogus", "-1s", "10"} {
		if code, _, _ := getWait(t, srv.URL, job.ID, bad); code != http.StatusBadRequest {
			t.Errorf("wait=%s: status %d, want 400", bad, code)
		}
	}
	if code, _, _ := getWait(t, srv.URL, job.ID, "0s"); code != http.StatusOK {
		t.Errorf("wait=0s: status %d, want 200", code)
	}
}

// TestParseWaitClamps pins the server-side bound on ?wait=.
func TestParseWaitClamps(t *testing.T) {
	for in, want := range map[string]time.Duration{
		"":        0,
		"0s":      0,
		"250ms":   250 * time.Millisecond,
		"30s":     MaxWait,
		"1h":      MaxWait,
		"876000h": MaxWait,
	} {
		got, err := parseWait(in)
		if err != nil || got != want {
			t.Errorf("parseWait(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}
