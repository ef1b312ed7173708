// Package jobs is the checking-as-a-service core behind cmd/cald: a
// bounded, journaled job queue that accepts histories over HTTP, fans
// them across a checker worker pool, and serves three-valued verdicts.
//
// The package is built for hostile production traffic:
//
//   - Admission control: the queue is bounded; a full queue sheds load
//     with 429 + Retry-After instead of buffering without limit.
//   - Rate limiting: per-client token buckets bound each submitter's
//     sustained rate independently of the queue.
//   - Verdict cache: jobs are keyed by the canonicalized-history
//     fingerprint, so replayed traffic is answered without re-running
//     the search (Sat/Unsat only — Unknown depends on budgets).
//   - Graceful degradation: per-job deadlines and state/memo budgets are
//     clamped by server-wide limits; an exhausted budget surfaces as an
//     UNKNOWN verdict, never a hung request.
//   - Crash safety: an append-only journal records every admitted job
//     and its completion; a restarted manager replays the journal and
//     resumes the jobs that never finished.
package jobs

import (
	"context"
	"fmt"
	"time"

	"calgo/internal/history"
	"calgo/internal/spec"
)

// Schema versions the job JSON document served by the /jobs API and
// stored in the journal; the shape is specified in EXPERIMENTS.md
// ("Checking as a service").
const Schema = "calgo.job/v1"

// State is a job's position in its lifecycle.
type State string

const (
	// StatePending: admitted and queued, not yet picked up by a worker.
	StatePending State = "pending"
	// StateRunning: a worker is deciding the history now.
	StateRunning State = "running"
	// StateDone: terminal; Verdict, Detail and the search counters are
	// final.
	StateDone State = "done"
	// StateCanceled: terminal; the job was canceled while pending or
	// running and has no verdict.
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool { return s == StateDone || s == StateCanceled }

// Request is the client's half of a job: what to check and under which
// (clamped) budgets. Zero budget fields inherit the server's defaults;
// non-zero ones are clamped to the server's maxima, never raised.
type Request struct {
	// Spec names the specification: exchanger, elimarray, stack,
	// central-stack, dual-stack, queue, set, pqueue, syncqueue, register,
	// snapshot.
	Spec string `json:"spec"`
	// Object is the object identifier the spec constrains (default "E").
	Object string `json:"object,omitempty"`
	// Threads is the participant bound for spec "snapshot" (default 4).
	Threads int `json:"threads,omitempty"`
	// Mode selects the property: cal (default), lin, setlin.
	Mode string `json:"mode,omitempty"`
	// Engine selects the checker's decision procedure: dfs (default),
	// auto, monitor. Submit normalizes the empty string to "dfs", so the
	// job document always records the effective engine.
	Engine string `json:"engine,omitempty"`
	// History is the line-oriented interchange format accepted by
	// calcheck (inv/res lines). A job document echoes it only while the
	// job is pending: an ended job keeps only its verdict, and the
	// journal holds the copy a restart resumes.
	History string `json:"history"`
	// TimeoutMS is the per-job wall-clock deadline in milliseconds.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxStates bounds the search-state budget.
	MaxStates int `json:"max_states,omitempty"`
	// MemoBudget bounds the memoization-table bytes.
	MemoBudget int `json:"memo_budget,omitempty"`
}

// Job is one unit of checking work and its outcome — the document the
// /jobs API serves and the journal persists.
type Job struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	// Client identifies the submitter (the X-Calgo-Client header, or the
	// peer address), for rate-limiting and diagnostics.
	Client string `json:"client,omitempty"`
	State  State  `json:"state"`
	// Request holds the *effective* parameters: budgets after server-side
	// clamping, so the document records what was actually enforced.
	Request     Request `json:"request"`
	SubmittedNS int64   `json:"submitted_unix_ns"`
	StartedNS   int64   `json:"started_unix_ns,omitempty"`
	FinishedNS  int64   `json:"finished_unix_ns,omitempty"`
	// Verdict is the CLI vocabulary: OK, VIOLATION or UNKNOWN.
	Verdict string `json:"verdict,omitempty"`
	// Detail explains the verdict (reason, frontier, or cache note).
	Detail   string `json:"detail,omitempty"`
	States   int    `json:"states,omitempty"`
	MemoHits int    `json:"memo_hits,omitempty"`
	// Cached is true when the verdict was answered from the verdict cache
	// without running the search.
	Cached bool `json:"cached,omitempty"`
	// Resumed is true when the job was recovered from the journal by a
	// restarted daemon.
	Resumed bool `json:"resumed,omitempty"`

	// parsed is the validated history, held only while the job is
	// pending; not serialized (the journal re-parses Request.History on
	// replay).
	parsed history.History
	// cancel interrupts the search of a running job.
	cancel context.CancelFunc
	// cancelRequested marks a running job whose context has been
	// cancelled by Cancel; the worker finalizes it as StateCanceled.
	cancelRequested bool
}

func (j Job) ended() bool { return j.State.Terminal() }

// RequestError is a permanently-bad submission (unknown spec, malformed
// history, over-limit input): the HTTP layer answers 400 and clients
// must not retry.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// OverloadError is a transient admission failure — the queue is full or
// the client is over its rate — carrying the server's backoff hint. The
// HTTP layer answers 429 with a Retry-After header; well-behaved clients
// retry with jittered exponential backoff (jobs.Client does).
type OverloadError struct {
	// Cause distinguishes "queue full" from "rate limited".
	Cause string
	// RetryAfter is the server's earliest-useful-retry hint.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("overloaded (%s), retry after %v", e.Cause, e.RetryAfter)
}

// ErrDraining rejects submissions while the manager drains for
// shutdown; the HTTP layer answers 503. Pending jobs are journaled and
// resumed by the next daemon instance.
var ErrDraining = fmt.Errorf("jobs: manager is draining")

// ErrNotFound reports an unknown job id.
var ErrNotFound = fmt.Errorf("jobs: no such job")

// SpecByName resolves the specification vocabulary shared by calcheck
// and the job API. Threads only matters for "snapshot" (0 = default 4).
func SpecByName(name, object string, threads int) (spec.Spec, error) {
	if object == "" {
		object = "E"
	}
	o := history.ObjectID(object)
	switch name {
	case "exchanger":
		return spec.NewExchanger(o), nil
	case "elimarray":
		return spec.NewElimArray(o), nil
	case "stack":
		return spec.NewStack(o), nil
	case "central-stack":
		return spec.NewCentralStack(o), nil
	case "dual-stack":
		return spec.NewDualStack(o), nil
	case "queue":
		return spec.NewQueue(o), nil
	case "set":
		return spec.NewSet(o), nil
	case "pqueue":
		return spec.NewPQueue(o), nil
	case "syncqueue":
		return spec.NewSyncQueue(o), nil
	case "register":
		return spec.NewRegister(o), nil
	case "snapshot":
		if threads <= 0 {
			threads = 4
		}
		return spec.NewSnapshot(o, threads), nil
	default:
		return nil, fmt.Errorf("unknown spec %q", name)
	}
}
