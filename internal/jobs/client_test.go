package jobs

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestClientBackoffBounds(t *testing.T) {
	c := &Client{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	for attempt := 0; attempt < 10; attempt++ {
		d := c.backoff(attempt, 0)
		// Full jitter on the halved window: [base<<n / 2, base<<n], capped.
		win := 100 * time.Millisecond << uint(attempt)
		if win > time.Second || win <= 0 {
			win = time.Second
		}
		if d < win/2 || d > win {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, win/2, win)
		}
	}
	// The server's Retry-After hint wins when it is longer.
	if d := c.backoff(0, 3*time.Second); d != 3*time.Second {
		t.Errorf("backoff with Retry-After 3s = %v", d)
	}
}

// TestClientRetriesThrottledSubmission pins the 429 contract end to end:
// a rate-limited submission is retried with backoff until admitted.
func TestClientRetriesThrottledSubmission(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1, Rate: 20, Burst: 1, CacheEntries: -1})

	c := NewClient(srv.URL)
	c.ClientID = "retrier"
	c.BaseDelay = 20 * time.Millisecond
	var retries atomic.Int64
	c.OnRetry = func(attempt int, wait time.Duration, cause string) { retries.Add(1) }

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Burst 1: the first submission drains the bucket, the second must
	// absorb at least one 429 before the 20/s refill admits it.
	if _, err := c.Submit(ctx, Request{Spec: "exchanger", History: satHistory(1, 2)}); err != nil {
		t.Fatal(err)
	}
	job, err := c.Check(ctx, Request{Spec: "exchanger", History: satHistory(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if job.Verdict != "OK" {
		t.Errorf("verdict = %q, want OK", job.Verdict)
	}
	if retries.Load() == 0 {
		t.Error("expected at least one observed 429 retry")
	}
}

// TestClientPermanentErrorsDontRetry pins that 4xx request errors fail
// fast: a bad history does not get better with retries.
func TestClientPermanentErrorsDontRetry(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	c := NewClient(srv.URL)
	var retries atomic.Int64
	c.OnRetry = func(int, time.Duration, string) { retries.Add(1) }

	_, err := c.Submit(context.Background(), Request{Spec: "no-such-spec", History: satHistory(1, 2)})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 StatusError", err)
	}
	if retries.Load() != 0 {
		t.Errorf("permanent 400 was retried %d times", retries.Load())
	}
}

// TestClientRetriesTransportAndServerErrors pins transient handling: wire
// errors and 5xx are retried up to the budget, then surfaced.
func TestClientRetriesTransportAndServerErrors(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retries = 3
	c.BaseDelay = time.Millisecond
	c.MaxDelay = 2 * time.Millisecond
	_, err := c.Submit(context.Background(), Request{Spec: "exchanger", History: satHistory(1, 2)})
	if err == nil {
		t.Fatal("exhausted retries must surface an error")
	}
	if hits.Load() != 3 {
		t.Errorf("server saw %d attempts, want 3", hits.Load())
	}
}

func TestClientWaitAndGet(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	c := NewClient(srv.URL)

	job, err := c.Submit(context.Background(), Request{Spec: "exchanger", History: unsatHistory})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(context.Background(), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Verdict != "VIOLATION" {
		t.Errorf("verdict = %q, want VIOLATION", final.Verdict)
	}
	got, err := c.Get(context.Background(), job.ID)
	if err != nil || got.ID != job.ID {
		t.Errorf("Get = %+v, %v", got, err)
	}
	if _, err := c.Get(context.Background(), "j-404404"); err == nil {
		t.Error("Get of unknown id must fail")
	}
}

func TestClientHonorsContextCancellation(t *testing.T) {
	// A server that always sheds: the client would retry forever without
	// the context.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, Request{Spec: "exchanger", History: satHistory(1, 2)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation took far longer than the context allowed")
	}
}

// TestClientWaitLongPolls: Wait hears the verdict when it is decided,
// not at its next poll. With a one-minute PollInterval and a 5s
// context, a client that slept between polls would time out.
func TestClientWaitLongPolls(t *testing.T) {
	m, srv, release, queued := longPollFixture(t)
	c := NewClient(srv.URL)
	c.PollInterval = time.Minute

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	released := make(chan struct{})
	go func() {
		defer close(released)
		if !subscribed(m, queued.ID) {
			t.Error("Wait never long-polled the job")
		}
		release <- struct{}{} // the worker runs the queued job
		release <- struct{}{}
	}()
	defer func() { <-released }() // the fixture's cleanup closes release
	job, err := c.Wait(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateDone || job.Verdict != "OK" {
		t.Errorf("Wait = state %s verdict %q, want done OK", job.State, job.Verdict)
	}
}

// TestClientWaitPacesDaemonIgnoringWait: against a daemon that answers
// every GET at once, Wait still starts at most one request per
// PollInterval, as it did before long-polling.
func TestClientWaitPacesDaemonIgnoringWait(t *testing.T) {
	const interval = 50 * time.Millisecond
	var gets atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		state := StatePending
		if gets.Add(1) >= 4 {
			state = StateDone
		}
		writeJob(w, http.StatusOK, Job{Schema: Schema, ID: "j-000001", State: state, Verdict: "OK"})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.PollInterval = interval
	start := time.Now()
	job, err := c.Wait(context.Background(), "j-000001")
	took := time.Since(start)
	if err != nil || job.State != StateDone {
		t.Fatalf("Wait = %+v, %v", job, err)
	}
	if n := gets.Load(); n != 4 {
		t.Fatalf("daemon saw %d GETs, want 4", n)
	}
	if took < 3*interval {
		t.Errorf("4 GETs in %v: more than one per %v", took, interval)
	}
}

// TestClientLongPollStaysUnderTimeout: the wait Wait asks for ends
// before the transport would give up on the request.
func TestClientLongPollStaysUnderTimeout(t *testing.T) {
	for _, tc := range []struct {
		http *http.Client
		want time.Duration
	}{
		{nil, 15 * time.Second}, // the default 30s transport timeout
		{&http.Client{Timeout: 2 * time.Second}, time.Second},
		{&http.Client{Timeout: 5 * time.Minute}, MaxWait},
		{&http.Client{}, MaxWait}, // no transport timeout
	} {
		asked := make(chan string, 1)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			asked <- r.URL.Query().Get("wait")
			writeJob(w, http.StatusOK, Job{Schema: Schema, ID: "j-000001", State: StateDone})
		}))
		c := NewClient(srv.URL)
		c.HTTP = tc.http
		if _, err := c.Wait(context.Background(), "j-000001"); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		got, err := time.ParseDuration(<-asked)
		if err != nil || got != tc.want {
			t.Errorf("timeout %v: asked wait=%v (%v), want %v", c.http().Timeout, got, err, tc.want)
		}
		if timeout := c.http().Timeout; timeout > 0 && got >= timeout {
			t.Errorf("asked wait %v is not below the %v transport timeout", got, timeout)
		}
	}
}
