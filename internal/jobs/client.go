package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to a cald job API with production manners: submissions
// that hit 429/503/5xx (or the wire) are retried with jittered
// exponential backoff, honouring the server's Retry-After when it is
// the longer wait; 4xx request errors are surfaced immediately — a bad
// history does not get better with retries.
type Client struct {
	// Base is the daemon's base URL (e.g. http://127.0.0.1:8419).
	Base string
	// HTTP is the transport (default: a client with a 30s timeout).
	HTTP *http.Client
	// Retries bounds the submission attempts (default 8).
	Retries int
	// BaseDelay seeds the exponential backoff (default 100ms); MaxDelay
	// caps it (default 5s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// PollInterval is the minimum gap between two of Wait's requests
	// (default 100ms). Each request long-polls (?wait=), so a verdict
	// arrives as soon as it is decided; the gap only paces a daemon that
	// answers at once, such as one that ignores wait or is draining.
	PollInterval time.Duration
	// ClientID is sent as X-Calgo-Client for per-client rate limiting.
	ClientID string
	// OnRetry, when set, observes each backoff (attempt counts from 1) —
	// the CLI logs these so a throttled run explains its pauses.
	OnRetry func(attempt int, wait time.Duration, cause string)
}

// NewClient returns a Client for the daemon at base with the default
// retry policy.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

// StatusError is a non-2xx daemon response outside the retry budget.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("daemon answered %d: %s", e.Code, strings.TrimSpace(e.Body))
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 8
}

// backoff computes the attempt'th jittered exponential delay, raised to
// the server's Retry-After hint when that is longer.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	base, max := c.BaseDelay, c.MaxDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	// Full jitter on the halved window: d/2 + rand(0, d/2], so
	// synchronized clients desynchronize instead of retrying in lockstep.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// Submit posts one job, retrying transient failures. The returned Job
// may already be terminal (a verdict-cache hit).
func (c *Client) Submit(ctx context.Context, req Request) (Job, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return Job{}, err
	}
	var lastErr error
	for attempt := 0; attempt < c.retries(); attempt++ {
		job, retryAfter, err := c.post(ctx, body)
		if err == nil {
			return job, nil
		}
		lastErr = err
		var se *StatusError
		if asStatus(err, &se) && se.Code < 500 && se.Code != http.StatusTooManyRequests {
			return Job{}, err // permanent: bad request, not found, ...
		}
		wait := c.backoff(attempt, retryAfter)
		if c.OnRetry != nil {
			c.OnRetry(attempt+1, wait, err.Error())
		}
		select {
		case <-ctx.Done():
			return Job{}, ctx.Err()
		case <-time.After(wait):
		}
	}
	return Job{}, fmt.Errorf("jobs: submission failed after %d attempts: %w", c.retries(), lastErr)
}

func asStatus(err error, target **StatusError) bool {
	se, ok := err.(*StatusError)
	if ok {
		*target = se
	}
	return ok
}

// post performs one submission attempt, extracting Retry-After on 429/503.
func (c *Client) post(ctx context.Context, body []byte) (Job, time.Duration, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return Job{}, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.ClientID != "" {
		hreq.Header.Set(ClientHeader, c.ClientID)
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return Job{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		var retryAfter time.Duration
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			retryAfter = time.Duration(s) * time.Second
		}
		return Job{}, retryAfter, &StatusError{Code: resp.StatusCode, Body: string(b)}
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return Job{}, 0, fmt.Errorf("decoding job document: %w", err)
	}
	return job, 0, nil
}

// Get fetches one job's current document.
func (c *Client) Get(ctx context.Context, id string) (Job, error) {
	return c.get(ctx, id, 0)
}

// get fetches one job's document, long-polling up to wait for it to
// become terminal when wait is positive.
func (c *Client) get(ctx context.Context, id string, wait time.Duration) (Job, error) {
	url := c.Base + "/jobs/" + id
	if wait > 0 {
		url += "?wait=" + wait.String()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return Job{}, err
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return Job{}, &StatusError{Code: resp.StatusCode, Body: string(b)}
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return Job{}, fmt.Errorf("decoding job document: %w", err)
	}
	return job, nil
}

// longPoll is the ?wait= Wait asks for: the server's MaxWait, or half
// the transport timeout when that is shorter, so the daemon answers
// before the client gives up on the request.
func (c *Client) longPoll() time.Duration {
	if t := c.http().Timeout; t > 0 && t/2 < MaxWait {
		return t / 2
	}
	return MaxWait
}

// Wait long-polls until the job reaches a terminal state, starting
// requests at most once per PollInterval. Transient poll failures (the
// daemon restarting mid-drain, say) are retried up to the submission
// retry budget.
func (c *Client) Wait(ctx context.Context, id string) (Job, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	wait := c.longPoll()
	failures := 0
	for {
		next := time.Now().Add(interval)
		job, err := c.get(ctx, id, wait)
		switch {
		case err == nil:
			failures = 0
			if job.State.Terminal() {
				return job, nil
			}
		default:
			var se *StatusError
			if asStatus(err, &se) && se.Code < 500 && se.Code != http.StatusTooManyRequests {
				return Job{}, err
			}
			failures++
			if failures >= c.retries() {
				return Job{}, fmt.Errorf("jobs: polling %s failed after %d attempts: %w", id, failures, err)
			}
		}
		select {
		case <-ctx.Done():
			return Job{}, ctx.Err()
		case <-time.After(time.Until(next)):
		}
	}
}

// Check submits a job and waits for its verdict — the remote
// counterpart of a local calgo.CAL call.
func (c *Client) Check(ctx context.Context, req Request) (Job, error) {
	job, err := c.Submit(ctx, req)
	if err != nil {
		return Job{}, err
	}
	if job.State.Terminal() {
		return job, nil
	}
	return c.Wait(ctx, job.ID)
}
