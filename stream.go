package calgo

import (
	"calgo/internal/stream"
)

// Streaming/online checking: feed events as they are observed, poll the
// verdict at any time. Linearizability is closed under event prefixes,
// so "VIOLATION-at-event-k" is sound the moment it is reported and final
// for the whole stream; Sat-so-far and Unknown-degraded report what the
// checker still knows. See the package documentation of
// calgo/internal/stream for the engine design.
type (
	// Stream is an online checker over an unbounded event stream. Build
	// one with NewStream, then Feed/FeedAll events, poll Verdict, and
	// Close to run end-of-stream checks. Safe for concurrent use.
	Stream = stream.Stream
	// StreamVerdict is a point-in-time streaming verdict snapshot; its
	// MarshalJSON emits a calgo.stream/v1 verdict-frame payload.
	StreamVerdict = stream.Verdict
	// StreamStatus is the three-valued streaming verdict: sat-so-far,
	// violation, or unknown-degraded.
	StreamStatus = stream.Status
)

// StreamStatus values.
const (
	// StreamSatSoFar: every check run so far passed.
	StreamSatSoFar = stream.SatSoFar
	// StreamViolation: the prefix through Verdict.AtEvent is not
	// linearizable; sticky and final for every extension.
	StreamViolation = stream.Violation
	// StreamDegraded: the checker can no longer decide (window exceeded,
	// unambiguous fragment left after the fallback buffer was shed, or
	// cancellation) and says so instead of guessing.
	StreamDegraded = stream.Degraded
)

// Stream configuration defaults (see WithStreamWindow and
// WithStreamCheckEvery).
const (
	DefaultStreamWindow     = stream.DefaultWindow
	DefaultStreamCheckEvery = stream.DefaultCheckEvery
)

// ErrStreamClosed is returned by Stream.Feed after Close.
var ErrStreamClosed = stream.ErrClosed

// NewStream builds an online checker deciding sp over a growing event
// stream. Product specifications are demultiplexed into one incremental
// engine per component object: a monitor stepper where the spec has a
// monitor at element size 1, the windowed DFS re-check otherwise.
// Options: WithStreamWindow, WithStreamCheckEvery, WithStreamContext,
// plus any checker option except WithEngine (WithMaxStates,
// WithMemoBudget, WithMetrics, ...) to configure the embedded fallback
// re-checker.
//
// On every fed prefix, the streaming verdict agrees with the batch
// verdict of CAL on that prefix, under the spec's own element bound (an
// exchanger stream accepts swaps, elements of size 2): Sat-so-far/Sat
// where the batch verdict is Sat, VIOLATION-at-event-k where it is Unsat (k the exact
// event for incremental engines, the detecting re-check boundary
// otherwise), and Unknown-degraded only where the stream exceeded a
// declared capacity.
func NewStream(sp Spec, opts ...Option) (*Stream, error) {
	cfg, err := streamOptions(opts)
	if err != nil {
		return nil, err
	}
	return stream.New(sp, cfg)
}
