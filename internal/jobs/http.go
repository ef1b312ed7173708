package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"
)

// Handler returns the job API, mountable on the ops mux (cald mounts it
// at /jobs via serve.Server.Mount):
//
//	POST /jobs             submit; 202 + job doc (200 when answered from
//	                       the verdict cache), 400 bad request, 429 +
//	                       Retry-After when shed or rate-limited, 503
//	                       when draining
//	GET  /jobs             list all known jobs
//	GET  /jobs/{id}        poll one job; ?wait=<duration> long-polls:
//	                       the answer comes as soon as the job is
//	                       terminal, or with the current snapshot when
//	                       the wait (clamped to MaxWait) runs out, the
//	                       request ends or the manager drains; a
//	                       malformed or negative wait is 400. ?watch=1
//	                       streams state changes as Server-Sent Events
//	                       until the job finishes
//	POST /jobs/{id}/cancel cancel a pending or running job
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", m.handleSubmit)
	mux.HandleFunc("GET /jobs", m.handleList)
	mux.HandleFunc("GET /jobs/{id}", m.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", m.handleCancel)
	return mux
}

// ClientHeader names the submitter for rate limiting; absent, the peer
// address (without port) is the client identity.
const ClientHeader = "X-Calgo-Client"

func clientID(r *http.Request) string {
	if id := r.Header.Get(ClientHeader); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (the header has no sub-second syntax).
func retryAfterSeconds(d time.Duration) string {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%d", s)
}

// writeJSON answers with v as an indented JSON document, the shape of
// every /jobs and /streams reply.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone
}

// writeError maps the error taxonomy the job and stream managers share
// onto HTTP statuses. what names the resource in a 404, and retry tells
// a client turned away by a drain what to do instead.
func writeError(w http.ResponseWriter, err error, what, retry string) {
	var reqErr *RequestError
	var over *OverloadError
	switch {
	case errors.As(err, &reqErr):
		http.Error(w, reqErr.Error(), http.StatusBadRequest)
	case errors.As(err, &over):
		w.Header().Set("Retry-After", retryAfterSeconds(over.RetryAfter))
		http.Error(w, over.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		http.Error(w, "daemon is draining; "+retry, http.StatusServiceUnavailable)
	case errors.Is(err, ErrNotFound):
		http.Error(w, "no such "+what, http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// watchSSE streams a watched job or stream as Server-Sent Events (the
// same plumbing contract as /statusz?watch=1): an immediate snapshot,
// one frame per update, then end-of-stream once watch's channel closes
// after the terminal frame. A drain (stopping closes) ends the stream
// early with an explicit drain event, so clients know to re-poll the
// restarted daemon.
func watchSSE[T any](w http.ResponseWriter, r *http.Request, what string,
	watch func(id string) (T, <-chan T, func(), error), stopping <-chan struct{}) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	snap, updates, stop, err := watch(r.PathValue("id"))
	if err != nil {
		http.Error(w, "no such "+what, http.StatusNotFound)
		return
	}
	defer stop()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")

	emit := func(v T) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !emit(snap) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-stopping:
			fmt.Fprint(w, "event: drain\ndata: {}\n\n")
			fl.Flush()
			return
		case v, open := <-updates:
			if !open || !emit(v) {
				return // after the terminal frame, or the client is gone
			}
		}
	}
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Reject oversized bodies before buffering them: the history limit
	// plus headroom for the JSON envelope.
	r.Body = http.MaxBytesReader(w, r.Body, int64(m.cfg.MaxHistoryBytes)+64<<10)
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	job, err := m.Submit(clientID(r), req)
	if err != nil {
		writeError(w, err, "job", "retry against the restarted instance")
		return
	}
	status := http.StatusAccepted
	if job.State.Terminal() {
		status = http.StatusOK // answered from the verdict cache
	}
	writeJSON(w, status, job)
}

func (m *Manager) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, m.List())
}

func (m *Manager) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	if q.Get("watch") != "" {
		watchSSE(w, r, "job", m.Watch, m.Stopping())
		return
	}
	wait, err := parseWait(q.Get("wait"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	job, ok := m.await(r.Context(), id, wait)
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// MaxWait bounds a long-poll: a longer ?wait= is clamped to it. It
// matches the default per-job deadline (Config.MaxTimeout), so one
// request can cover a default-budget job.
const MaxWait = 30 * time.Second

// parseWait reads a ?wait= value: a Go duration, clamped to MaxWait.
// Absent means no wait.
func parseWait(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad wait %q: want a non-negative duration such as 10s", s)
	}
	return min(d, MaxWait), nil
}

// await returns the job's snapshot once it is terminal, or its current
// one when wait runs out, ctx ends or the manager drains — whichever
// comes first. It rides on the same Watch subscription as ?watch=1.
func (m *Manager) await(ctx context.Context, id string, wait time.Duration) (Job, bool) {
	if wait <= 0 {
		return m.Get(id)
	}
	_, updates, stop, err := m.Watch(id)
	if err != nil {
		return Job{}, false
	}
	defer stop()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case _, open := <-updates:
			if open {
				continue // not terminal: the channel closes after the terminal frame, or on Drain
			}
		case <-timer.C:
		case <-ctx.Done():
		case <-m.Stopping():
		}
		return m.Get(id)
	}
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := m.Cancel(id); err != nil {
		writeError(w, err, "job", "")
		return
	}
	job, _ := m.Get(id)
	writeJSON(w, http.StatusOK, job)
}
