package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// endedIn counts the ended documents of a listing.
func endedIn[D document](docs []D) int {
	n := 0
	for _, d := range docs {
		if d.ended() {
			n++
		}
	}
	return n
}

// TestJobsEvictOldestEnded: once more than maxEnded jobs have ended the
// table keeps exactly maxEnded of them, and the job that ended first is
// gone from Get and answers 404 over HTTP.
func TestJobsEvictOldestEnded(t *testing.T) {
	m, srv := newTestServer(t, Config{Workers: 1})
	first, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, first.ID)
	// Cache hits of the same history end at once, so they fill the
	// table cheaply.
	const k = 3
	ids := []string{first.ID}
	for len(ids) < maxEnded+k {
		j, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(1, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if !j.Cached {
			t.Fatalf("resubmission %s was not a cache hit", j.ID)
		}
		ids = append(ids, j.ID)
	}

	all := m.List()
	if len(all) != maxEnded || endedIn(all) != maxEnded {
		t.Fatalf("List holds %d jobs, %d ended; want exactly %d ended", len(all), endedIn(all), maxEnded)
	}
	if all[0].ID != ids[k] || all[len(all)-1].ID != ids[len(ids)-1] {
		t.Errorf("List runs %s..%s, want %s..%s", all[0].ID, all[len(all)-1].ID, ids[k], ids[len(ids)-1])
	}
	if _, ok := m.Get(first.ID); ok {
		t.Errorf("Get(%s) still finds the job that ended first", first.ID)
	}
	resp, err := http.Get(srv.URL + "/jobs/" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /jobs/%s = %d, want 404", first.ID, resp.StatusCode)
	}
	if code, _, _ := getWait(t, srv.URL, ids[k], "0s"); code != http.StatusOK {
		t.Errorf("GET /jobs/%s (oldest kept) = %d, want 200", ids[k], code)
	}
}

// TestJobsServeHistoryOnlyWhilePending: a job echoes request.history
// while it is pending; a done job, a cache hit and a canceled pending
// job serve it empty, because the journal holds the copy a restart
// resumes.
func TestJobsServeHistoryOnlyWhilePending(t *testing.T) {
	release := make(chan struct{}, 8)
	m, srv := newTestServer(t, Config{QueueDepth: 4, Workers: 1,
		OnDone: func(Job) { <-release }})
	t.Cleanup(func() { close(release) })

	done := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(1, 2)}))
	waitTerminal(t, m, done.ID) // the worker is now parked in OnDone
	hit := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(1, 2)}))
	if !hit.Cached {
		t.Fatalf("resubmission = %+v, want a cache hit", hit)
	}
	if hit.Request.History != "" {
		t.Errorf("cache-hit submit response echoes history %q", hit.Request.History)
	}
	pending := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(3, 4)}))
	canceled := decodeJob(t, postJob(t, srv.URL, Request{Spec: "exchanger", History: satHistory(5, 6)}))
	if err := m.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		id    string
		state State
		want  string
	}{
		{done.ID, StateDone, ""},
		{hit.ID, StateDone, ""},
		{canceled.ID, StateCanceled, ""},
		{pending.ID, StatePending, satHistory(3, 4)},
	} {
		code, j, _ := getWait(t, srv.URL, c.id, "0s")
		if code != http.StatusOK || j.State != c.state {
			t.Fatalf("GET /jobs/%s = %d state %s, want 200 %s", c.id, code, j.State, c.state)
		}
		if j.Request.History != c.want {
			t.Errorf("%s job %s serves history %q, want %q", c.state, c.id, j.Request.History, c.want)
		}
	}
	release <- struct{}{}
}

// TestJobsTableConcurrentEvictionAndDrain is the shared table's -race
// gate: Watch/stop, Get and List run while concurrent cache hits push
// the ended count past maxEnded, and a Drain in the middle of it must
// release every outstanding watcher and long-poll.
func TestJobsTableConcurrentEvictionAndDrain(t *testing.T) {
	release := make(chan struct{})
	m, srv := newTestServer(t, Config{QueueDepth: 8, Workers: 1,
		OnDone: func(Job) { <-release }})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unpark)

	first, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, first.ID) // the worker is parked: later jobs stay pending
	var pending []string
	var watches []<-chan Job
	var polls []<-chan answer
	for i := 0; i < 2; i++ {
		j, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(10+i, 20+i)})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, j.ID)
		_, updates, stop, err := m.Watch(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		watches = append(watches, updates)
		polls = append(polls, goGetWait(t, srv.URL, j.ID, "30s"))
	}
	// Each pending job has two subscribers: the Watch and the long-poll.
	for _, id := range pending {
		for deadline := time.Now().Add(5 * time.Second); subscribers(m, id) < 2; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s has %d subscribers, want 2", id, subscribers(m, id))
			}
		}
	}

	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for n := 0; ; n++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				id := jobID(1 + (n*7+r)%(maxEnded+400))
				if _, updates, stop, err := m.Watch(id); err == nil {
					stop()
					select {
					case <-updates:
					default:
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Errorf("Watch(%s): %v", id, err)
					return
				}
				m.Get(id)
				all := m.List()
				if ended := endedIn(all); ended > maxEnded {
					t.Errorf("List holds %d ended jobs, above the bound %d", ended, maxEnded)
					return
				}
				for i := 1; i < len(all); i++ {
					if all[i-1].ID >= all[i].ID {
						t.Errorf("List out of creation order: %s before %s", all[i-1].ID, all[i].ID)
						return
					}
				}
			}
		}(r)
	}

	const submitters, each = 4, maxEnded/4 + 50
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := m.Submit(fmt.Sprintf("c%d", g), Request{Spec: "exchanger", History: satHistory(1, 2)}); err != nil {
					t.Errorf("cache-hit submission: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, ok := m.Get(first.ID); ok {
		t.Errorf("job %s survived %d later endings", first.ID, submitters*each)
	}

	// Drain with the readers still running. The parked worker is let
	// go once draining has begun, so it exits without taking a job.
	drained := make(chan int, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	for !m.Draining() {
		time.Sleep(time.Millisecond)
	}
	unpark()
	if n := <-drained; n != len(pending) {
		t.Errorf("Drain left %d pending jobs, want %d", n, len(pending))
	}
	for i, updates := range watches {
		select {
		case _, open := <-updates:
			if open {
				t.Errorf("watcher of %s got a frame from a job that never ran", pending[i])
			}
		case <-time.After(5 * time.Second):
			t.Errorf("Drain did not release the watcher of %s", pending[i])
		}
	}
	for i, got := range polls {
		select {
		case a := <-got:
			if a.code != http.StatusOK || a.job.State != StatePending {
				t.Errorf("long-poll of %s = %d state %s, want 200 pending", pending[i], a.code, a.job.State)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("Drain did not release the long-poll of %s", pending[i])
		}
	}
	close(stopReaders)
	readers.Wait()
	all := m.List()
	if ended := endedIn(all); ended != maxEnded || len(all) != maxEnded+len(pending) {
		t.Errorf("after the churn List holds %d jobs, %d ended; want %d ended and %d pending",
			len(all), ended, maxEnded, len(pending))
	}
}

// TestStreamClosedKeepsOnlyDocument: close, cancel and the idle reaper
// drop a stream's engine, and GET, List and ?watch=1 still serve the
// final frame from the document.
func TestStreamClosedKeepsOnlyDocument(t *testing.T) {
	m, srv := newStreamServer(t, StreamConfig{})
	idle, idleSrv := newStreamServer(t, StreamConfig{IdleTimeout: 30 * time.Millisecond})

	closed := decodeFrame(t, openStream(t, srv.URL, StreamRequest{Spec: "queue"}))
	postBatch(t, srv.URL, closed.ID, queueViolationBatch).Body.Close()
	resp, err := http.Post(srv.URL+"/streams/"+closed.ID+"/close", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	canceled := decodeFrame(t, openStream(t, srv.URL, StreamRequest{Spec: "queue"}))
	resp, err = http.Post(srv.URL+"/streams/"+canceled.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	reaped := decodeFrame(t, openStream(t, idleSrv.URL, StreamRequest{Spec: "queue"}))
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if d, _ := idle.Get(reaped.ID); d.State == StreamClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle stream never reaped")
		}
	}

	for _, c := range []struct {
		m       *StreamManager
		url, id string
		status  string
	}{
		{m, srv.URL, closed.ID, "violation"},
		{m, srv.URL, canceled.ID, "sat-so-far"},
		{idle, idleSrv.URL, reaped.ID, "sat-so-far"},
	} {
		c.m.mu.Lock()
		d := c.m.find(c.id)
		engine, timer := d.engine, d.idle
		c.m.mu.Unlock()
		if engine != nil || timer != nil {
			t.Errorf("closed stream %s still references its engine (%v) or idle timer (%v)", c.id, engine != nil, timer != nil)
		}
		check := func(how string, f streamFrame) {
			t.Helper()
			if f.ID != c.id || f.State != StreamClosed || !f.Verdict.Final || f.Verdict.Status != c.status {
				t.Errorf("%s of closed stream %s = %+v, want the final %s frame", how, c.id, f, c.status)
			}
		}
		r, err := http.Get(c.url + "/streams/" + c.id)
		if err != nil {
			t.Fatal(err)
		}
		check("GET", decodeFrame(t, r))
		r, err = http.Get(c.url + "/streams")
		if err != nil {
			t.Fatal(err)
		}
		var all []streamFrame
		err = json.NewDecoder(r.Body).Decode(&all)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		listed := false
		for _, f := range all {
			if f.ID == c.id {
				listed = true
				check("GET /streams", f)
			}
		}
		if !listed {
			t.Errorf("GET /streams lacks closed stream %s", c.id)
		}
		frames := watchFrames(t, c.url, c.id)
		if len(frames) != 1 {
			t.Errorf("?watch=1 of closed stream %s sent %d frames, want the final one", c.id, len(frames))
		} else {
			check("?watch=1", frames[0])
		}
	}
}

// watchFrames reads every SSE data frame of GET /streams/{id}?watch=1
// until the server ends the stream.
func watchFrames(t *testing.T, url, id string) []streamFrame {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/streams/"+id+"?watch=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames []streamFrame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var f streamFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if ctx.Err() != nil {
		t.Errorf("?watch=1 of %s did not end by itself", id)
	}
	return frames
}

// TestStreamsEvictOldestClosed: the stream table keeps at most maxEnded
// closed streams, dropping the one closed first.
func TestStreamsEvictOldestClosed(t *testing.T) {
	m := NewStreamManager(StreamConfig{MaxStreams: 1})
	defer m.Drain()
	var first string
	for i := 0; i <= maxEnded; i++ {
		d, err := m.Open("c", StreamRequest{Spec: "queue"})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = d.ID
		}
		if _, err := m.Close(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	if all := m.List(); len(all) != maxEnded || endedIn(all) != maxEnded {
		t.Errorf("List holds %d streams, %d closed; want %d closed", len(all), endedIn(all), maxEnded)
	}
	if _, ok := m.Get(first); ok {
		t.Errorf("Get(%s) still finds the stream closed first", first)
	}
}

// TestWatchSlowSubscriberGetsTerminalFrame: a subscriber that reads
// nothing while more frames arrive than its channel buffers still gets
// the terminal frame last, then the close.
func TestWatchSlowSubscriberGetsTerminalFrame(t *testing.T) {
	m := NewStreamManager(StreamConfig{})
	defer m.Drain()
	d, err := m.Open("c", StreamRequest{Spec: "queue"})
	if err != nil {
		t.Fatal(err)
	}
	_, updates, stop, err := m.Watch(d.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for i := 0; i < 40; i++ {
		batch := fmt.Sprintf("inv t1 E.enq %d\nres t1 E.enq true\n", i)
		if _, err := m.Feed(d.ID, batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Close(d.ID); err != nil {
		t.Fatal(err)
	}
	var last StreamDoc
	n := 0
	for f := range updates {
		last, n = f, n+1
	}
	if last.State != StreamClosed || !last.Verdict.Final || last.Verdict.Events != 80 {
		t.Errorf("last of %d frames = state %s final %v events %d, want the closed frame after 80 events",
			n, last.State, last.Verdict.Final, last.Verdict.Events)
	}
}
