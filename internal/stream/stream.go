// Package stream implements streaming/online concurrency-aware
// linearizability checking: an ingestion front-end that consumes an
// unbounded event stream, maintains per-object incremental verdicts and
// sheds decided prefixes to bound resident memory.
//
// The paper's CA-traces are defined over growing histories, and
// linearizability (the element-size-1 fragment) is closed under event
// prefixes: a prefix whose pending invocations may be dropped or
// completed arbitrarily is non-linearizable only if every extension is.
// That closure is what makes an online verdict sound — once a prefix is
// bad, "VIOLATION-at-event-k" is final for the whole stream.
//
// Each object gets one engine, chosen by its specification:
//
//   - a spec with a specialized monitor at element size 1 (queue, stack,
//     set, pqueue; calgo/internal/monitor) is advanced event-by-event by
//     its monitor.Stepper. The queue stepper is fully incremental and
//     sheds decided values, so a balanced stream of any length runs in
//     bounded memory; stack/set/pqueue steppers retain completed
//     operations and re-check at quiescent cuts. While the stream is
//     shorter than Config.Window the object also buffers its events; if
//     the stepper leaves its fragment then, that complete prefix is
//     re-checked with the exact DFS (calgo/internal/check), which decides
//     the object from there on.
//   - every other spec runs the windowed DFS re-check: the general
//     checker re-run over the object's buffered events on a cadence. The
//     buffer is bounded by Config.Window; a stream that outgrows it
//     degrades honestly to "Unknown-degraded" rather than shedding events
//     the DFS would need.
//
// Verdicts are three-valued with an explicit degradation state:
// Sat-so-far (every check run so far passed), VIOLATION-at-event-k
// (sticky, with the stream index that made the prefix bad) and
// Unknown-degraded (the stream outgrew its window, left the monitored
// fragment after the fallback buffer was shed, or checking was
// cancelled).
package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/obs"
	"calgo/internal/spec"
)

// Status is the three-valued streaming verdict.
type Status uint8

const (
	// SatSoFar: every check run so far passed. For incremental engines
	// the full prefix is known linearizable; Verdict.Unchecked counts
	// events a cadence-based engine has not yet incorporated.
	SatSoFar Status = iota
	// Violation: the prefix through Verdict.AtEvent is not linearizable.
	// Sticky and final: prefix closure makes every extension bad.
	Violation
	// Degraded: the checker can no longer decide (window exceeded,
	// unambiguous fragment left after the fallback buffer was shed, or
	// cancellation). Events are still counted, but the verdict is
	// permanently Unknown unless a violation is found by another object's
	// engine.
	Degraded
)

// String returns the status's wire spelling (used in calgo.stream/v1
// verdict frames).
func (s Status) String() string {
	switch s {
	case Violation:
		return "violation"
	case Degraded:
		return "unknown-degraded"
	default:
		return "sat-so-far"
	}
}

// Verdict is a point-in-time streaming verdict snapshot.
type Verdict struct {
	// Status is the three-valued verdict.
	Status Status `json:"-"`
	// AtEvent is the stream index of the event that made the prefix
	// non-linearizable (-1 unless Status == Violation). For incremental
	// engines it is exact; cadence-based engines report the re-check
	// boundary at which the violation was detected.
	AtEvent int64 `json:"at_event"`
	// Reason explains a Violation (the bad pattern or witness-search
	// failure) or a Degraded state (what capacity was exceeded).
	Reason string `json:"reason,omitempty"`
	// Events fed so far; Ops completed; Pending invocations open.
	Events  int64 `json:"events"`
	Ops     int64 `json:"ops"`
	Pending int   `json:"pending"`
	// Unchecked counts events not yet incorporated into an exact verdict
	// (cadence-based engines between re-checks). Zero means Sat-so-far
	// is exact for the whole prefix.
	Unchecked int64 `json:"unchecked"`
	// Shed counts records and buffered events discarded to bound memory;
	// Resident is the current retained-record footprint and HighWater its
	// maximum so far.
	Shed      int64 `json:"shed"`
	Resident  int64 `json:"resident"`
	HighWater int64 `json:"high_water"`
	// Engine names the decision path: "monitor:queue", "dfs", or "mixed"
	// for multi-object streams with differing engines.
	Engine string `json:"engine"`
	// Final is set by Close: end-of-stream checks have run and the
	// verdict will not change.
	Final bool `json:"final"`
}

// String renders the verdict in the streaming vocabulary:
// "Sat-so-far", "VIOLATION-at-event-k" or "Unknown-degraded".
func (v Verdict) String() string {
	switch v.Status {
	case Violation:
		return fmt.Sprintf("VIOLATION-at-event-%d: %s", v.AtEvent, v.Reason)
	case Degraded:
		return "Unknown-degraded: " + v.Reason
	default:
		if v.Final {
			return fmt.Sprintf("Sat (%d events, %d ops)", v.Events, v.Ops)
		}
		return fmt.Sprintf("Sat-so-far (%d events, %d ops, %d pending)", v.Events, v.Ops, v.Pending)
	}
}

// MarshalJSON emits the verdict with its wire status and display string,
// the payload of a calgo.stream/v1 verdict frame.
func (v Verdict) MarshalJSON() ([]byte, error) {
	type alias Verdict
	return json.Marshal(struct {
		Status  string `json:"status"`
		Display string `json:"display"`
		alias
	}{Status: v.Status.String(), Display: v.String(), alias: alias(v)})
}

// ErrClosed is returned by Feed after Close.
var ErrClosed = errors.New("stream: closed")

// Config configures a Stream. The zero value is usable: default window
// and cadence, no metrics.
type Config struct {
	// Window bounds the events buffered per object for DFS (re-)checking
	// and for falling back from a monitor that leaves its fragment
	// mid-stream. Default 65536.
	Window int
	// CheckEvery is the DFS re-check cadence in buffered events, and the
	// replay steppers' re-check cadence in completed operations. Default
	// 4096.
	CheckEvery int
	// CheckOptions configure the embedded fallback Checker (state bounds,
	// memo budget, tracers, metrics). The stream builds it with the DFS
	// engine, so an engine option here has no effect.
	CheckOptions []check.Option
	// Metrics, when set, registers the stream gauges and counters
	// (stream.events, stream.shed, stream.checks, stream.violations,
	// stream.degraded, stream.resident, stream.resident_hwm).
	Metrics *obs.Metrics
	// Context parents the stream's internal context; cancelling it
	// degrades in-flight and future DFS re-checks. Nil means Background.
	Context context.Context
}

// DefaultWindow and DefaultCheckEvery are the Config defaults.
const (
	DefaultWindow     = 65536
	DefaultCheckEvery = 4096
)

// Stream is an online checker: feed events as they are observed, poll
// Verdict at any time, Close to run end-of-stream checks. All methods
// are safe for concurrent use; events must be fed in observation order.
type Stream struct {
	mu     sync.Mutex
	sp     spec.Spec
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc

	engines map[history.ObjectID]*objEngine
	order   []history.ObjectID // engine iteration order (stable)
	anyObj  bool               // single engine accepts every object

	pend   map[history.ThreadID]threadPend
	events int64
	ops    int64
	closed bool

	status   Status
	atEvent  int64
	reason   string
	shedBufs int64 // total sheds: engine buffers + synced stepper-internal sheds

	lastResident int64
	highWater    int64

	mEvents, mShed, mChecks, mViol, mDegraded *obs.Counter
	mResident, mHWM                           *obs.Gauge
}

type threadPend struct {
	obj    history.ObjectID
	method history.Method
}

// New builds a Stream deciding sp online. Product specifications are
// demultiplexed into one engine per component object; events on objects
// the specification does not constrain are Feed errors.
func New(sp spec.Spec, cfg Config) (*Stream, error) {
	if sp == nil {
		return nil, errors.New("stream: nil specification")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = DefaultCheckEvery
	}
	if cfg.CheckEvery > cfg.Window {
		cfg.CheckEvery = cfg.Window
	}
	parent := cfg.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	s := &Stream{
		sp:      sp,
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		engines: make(map[history.ObjectID]*objEngine),
		pend:    make(map[history.ThreadID]threadPend),
		atEvent: -1,
	}
	if m := cfg.Metrics; m != nil {
		s.mEvents = m.Counter("stream.events")
		s.mShed = m.Counter("stream.shed")
		s.mChecks = m.Counter("stream.checks")
		s.mViol = m.Counter("stream.violations")
		s.mDegraded = m.Counter("stream.degraded")
		s.mResident = m.Gauge("stream.resident")
		s.mHWM = m.Gauge("stream.resident_hwm")
	}
	var comps []spec.Spec
	if p, ok := sp.(*spec.Product); ok {
		comps = p.Components()
	} else {
		comps = []spec.Spec{sp}
		s.anyObj = sp.Object() == ""
	}
	for _, comp := range comps {
		eng, err := newObjEngine(comp, &cfg)
		if err != nil {
			cancel()
			return nil, err
		}
		s.engines[comp.Object()] = eng
		s.order = append(s.order, comp.Object())
	}
	return s, nil
}

func (s *Stream) engineFor(obj history.ObjectID) *objEngine {
	if s.anyObj {
		return s.engines[s.sp.Object()]
	}
	return s.engines[obj]
}

// Feed ingests one event. It returns an error only for transport-level
// problems — a closed stream, an ill-formed event (response without a
// matching invocation, invocation while one is pending on the same
// thread) or an object outside the specification; such events are
// rejected without advancing the stream. Verdict-level outcomes
// (violations, degradation) are reported by Verdict, never as errors.
func (s *Stream) Feed(ev history.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	eng := s.engineFor(ev.Object)
	if eng == nil {
		return fmt.Errorf("stream: event %d touches object %s, which the specification does not constrain", s.events, ev.Object)
	}
	idx := s.events
	switch ev.Kind {
	case history.Invoke:
		if p, dup := s.pend[ev.Thread]; dup {
			return fmt.Errorf("stream: ill-formed event %d: thread %s invokes %s/%s while %s/%s is pending",
				idx, ev.Thread, ev.Object, ev.Method, p.obj, p.method)
		}
		s.pend[ev.Thread] = threadPend{obj: ev.Object, method: ev.Method}
	case history.Respond:
		p, ok := s.pend[ev.Thread]
		if !ok || p.obj != ev.Object || p.method != ev.Method {
			return fmt.Errorf("stream: ill-formed event %d: response %s/%s on thread %s does not match a pending invocation",
				idx, ev.Object, ev.Method, ev.Thread)
		}
		delete(s.pend, ev.Thread)
		s.ops++
	default:
		return fmt.Errorf("stream: ill-formed event %d: unknown event kind %d", idx, ev.Kind)
	}
	s.events++
	if s.mEvents != nil {
		s.mEvents.Inc()
	}
	if s.status != Violation {
		eng.feed(s, ev, idx)
	}
	if idx&1023 == 0 {
		s.updateGauges()
	}
	return nil
}

// FeedAll feeds a batch of events in order, stopping at the first
// transport error.
func (s *Stream) FeedAll(h history.History) error {
	for _, ev := range h {
		if err := s.Feed(ev); err != nil {
			return err
		}
	}
	return nil
}

// Verdict snapshots the current streaming verdict.
func (s *Stream) Verdict() Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshot()
}

// Close runs the end-of-stream checks (queue Q3/Q4 residue, a final
// batch re-check for cadence engines), releases buffered state and
// returns the final verdict. Further Feeds return ErrClosed; Close is
// idempotent.
func (s *Stream) Close() Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		if s.status != Violation {
			for _, obj := range s.order {
				s.engines[obj].finish(s)
				if s.status == Violation {
					break
				}
			}
		}
		s.cancel()
		s.updateGauges()
		if s.mResident != nil {
			s.mResident.Add(-s.lastResident)
			s.lastResident = 0
		}
	}
	v := s.snapshot()
	v.Final = true
	return v
}

// Cancel aborts in-flight and future DFS re-checks, degrading the
// verdict instead of blocking; Feed keeps counting events. Use it to
// bound Close latency when abandoning a stream.
func (s *Stream) Cancel() { s.cancel() }

// violate records a sticky violation.
func (s *Stream) violate(at int64, reason string) {
	if s.status == Violation {
		return
	}
	s.status = Violation
	s.atEvent = at
	s.reason = reason
	if s.mViol != nil {
		s.mViol.Inc()
	}
}

// degrade records honest degradation; violations (even later ones from
// other objects' engines) take precedence.
func (s *Stream) degrade(reason string) {
	if s.status != SatSoFar {
		return
	}
	s.status = Degraded
	s.reason = reason
	if s.mDegraded != nil {
		s.mDegraded.Inc()
	}
}

func (s *Stream) shedBuffered(n int64) {
	s.shedBufs += n
	if s.mShed != nil {
		s.mShed.Add(n)
	}
}

func (s *Stream) resident() int64 {
	r := int64(len(s.pend))
	for _, obj := range s.order {
		r += s.engines[obj].resident()
	}
	return r
}

func (s *Stream) updateGauges() {
	for _, obj := range s.order {
		s.engines[obj].syncShed(s)
	}
	r := s.resident()
	if r > s.highWater {
		s.highWater = r
	}
	if s.mResident != nil {
		s.mResident.Add(r - s.lastResident)
		s.lastResident = r
		s.mHWM.SetMax(s.highWater)
	}
}

func (s *Stream) snapshot() Verdict {
	for _, obj := range s.order {
		s.engines[obj].syncShed(s)
	}
	v := Verdict{
		Status:    s.status,
		AtEvent:   s.atEvent,
		Reason:    s.reason,
		Events:    s.events,
		Ops:       s.ops,
		Pending:   len(s.pend),
		Shed:      s.shedBufs,
		Resident:  s.resident(),
		HighWater: s.highWater,
		Final:     s.closed,
	}
	if v.Resident > v.HighWater {
		v.HighWater = v.Resident
	}
	for i, obj := range s.order {
		eng := s.engines[obj]
		st := eng.stats()
		v.Unchecked += int64(st.Unchecked) + int64(eng.sinceCheck)
		label := eng.label()
		if i == 0 {
			v.Engine = label
		} else if v.Engine != label {
			v.Engine = "mixed"
		}
	}
	return v
}
