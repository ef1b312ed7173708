package jobs

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"time"

	"calgo/internal/history"
	"calgo/internal/obs"
	"calgo/internal/stream"
)

// StreamSchema versions the stream JSON document served by the /streams
// API; the verdict payload inside it is a calgo.stream/v1 verdict frame
// (see EXPERIMENTS.md, "Streaming checking").
const StreamSchema = "calgo.stream/v1"

// StreamStates.
const (
	// StreamOpen: the stream accepts events.
	StreamOpen = "open"
	// StreamClosed: terminal; end-of-stream checks have run and the
	// verdict is final. A closed stream keeps only its document, which
	// stays queryable until evicted.
	StreamClosed = "closed"
)

// StreamRequest opens a stream: the specification vocabulary is the one
// the job API uses (SpecByName), plus streaming knobs. The spec alone
// picks each object's decision path, which the verdict names.
type StreamRequest struct {
	// Spec/Object/Threads select the specification, as in Request.
	Spec    string `json:"spec"`
	Object  string `json:"object,omitempty"`
	Threads int    `json:"threads,omitempty"`
	// Window and CheckEvery override the server defaults; both are
	// clamped by the server-wide maxima, never raised.
	Window     int `json:"window,omitempty"`
	CheckEvery int `json:"check_every,omitempty"`
}

// StreamDoc is one stream's served document: identity, lifecycle state
// and the current verdict frame.
type StreamDoc struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	// Client identifies the opener (the X-Calgo-Client header, or the
	// peer address), for admission control and diagnostics.
	Client string `json:"client,omitempty"`
	// State is "open" or "closed".
	State string `json:"state"`
	// Request holds the effective parameters after server-side clamping.
	Request   StreamRequest  `json:"request"`
	CreatedNS int64          `json:"created_unix_ns"`
	ClosedNS  int64          `json:"closed_unix_ns,omitempty"`
	Verdict   stream.Verdict `json:"verdict"`

	// engine decides the stream and idle reaps it while it is open;
	// closing drops both.
	engine *stream.Stream
	idle   *time.Timer
}

func (d StreamDoc) ended() bool { return d.State == StreamClosed }

// StreamConfig configures a StreamManager. The zero value is usable.
type StreamConfig struct {
	// MaxStreams bounds concurrently open streams; at the bound new
	// opens are shed with 429 + Retry-After (default 16).
	MaxStreams int
	// Rate is the per-client sustained stream-open rate per second
	// (0 = unlimited); Burst is the token-bucket depth (default 4).
	Rate  float64
	Burst int
	// MaxBatchBytes bounds one POSTed event batch (default 1 MiB);
	// MaxBatchEvents bounds its event count (default 65536). Streams
	// themselves are unbounded — that is the point — but each ingest
	// must fit in memory.
	MaxBatchBytes  int
	MaxBatchEvents int
	// Window and CheckEvery default (and clamp) the per-stream knobs
	// (defaults stream.DefaultWindow / stream.DefaultCheckEvery).
	Window     int
	CheckEvery int
	// IdleTimeout closes streams that have not seen an event for this
	// long — the final verdict is computed and kept, the resident state
	// released (default 5m; negative disables).
	IdleTimeout time.Duration
	// Metrics receives the stream.* counters and gauges; one registry
	// may be shared with the job manager (default: a private registry).
	Metrics *obs.Metrics
	// Logger receives lifecycle diagnostics (default: silent).
	Logger *slog.Logger
	// OnClose, when set, observes every stream as it closes — cald
	// publishes the final verdicts on /runsz.
	OnClose func(StreamDoc)
}

// StreamManager owns the stream table: admission-controlled opens,
// per-stream ingestion, verdict watching and idle reaping. All methods
// are safe for concurrent use; Get, List and Watch come from the
// embedded table, whose mutex also guards nextID and every open
// stream's engine.
type StreamManager struct {
	table[StreamDoc]
	cfg      StreamConfig
	log      *slog.Logger
	limiter  *limiter
	nextID   int
	draining atomic.Bool
	stopCh   chan struct{}

	cOpened, cClosed, cShed, cRateLimited, cEvents *obs.Counter
	gOpen                                          *obs.Gauge
}

// NewStreamManager builds the stream service.
func NewStreamManager(cfg StreamConfig) *StreamManager {
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = 16
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 4
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 1 << 20
	}
	if cfg.MaxBatchEvents <= 0 {
		cfg.MaxBatchEvents = 1 << 16
	}
	if cfg.Window <= 0 {
		cfg.Window = stream.DefaultWindow
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = stream.DefaultCheckEvery
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	m := &StreamManager{
		cfg:          cfg,
		log:          cfg.Logger,
		limiter:      newLimiter(cfg.Rate, cfg.Burst),
		stopCh:       make(chan struct{}),
		cOpened:      cfg.Metrics.Counter("streams.opened"),
		cClosed:      cfg.Metrics.Counter("streams.closed"),
		cShed:        cfg.Metrics.Counter("streams.shed"),
		cRateLimited: cfg.Metrics.Counter("streams.rate_limited"),
		cEvents:      cfg.Metrics.Counter("streams.events"),
		gOpen:        cfg.Metrics.Gauge("streams.open"),
	}
	return m
}

// Open admits and creates a stream. Transient refusals (at the open-
// stream bound, over the client's rate) are *OverloadError values;
// permanently-bad requests are *RequestError values; ErrDraining
// reports shutdown.
func (m *StreamManager) Open(client string, req StreamRequest) (StreamDoc, error) {
	if m.draining.Load() {
		return StreamDoc{}, ErrDraining
	}
	if ok, wait := m.limiter.allow(client, time.Now()); !ok {
		m.cRateLimited.Inc()
		return StreamDoc{}, &OverloadError{Cause: "rate limited", RetryAfter: wait}
	}
	sp, err := SpecByName(req.Spec, req.Object, req.Threads)
	if err != nil {
		return StreamDoc{}, &RequestError{Err: err}
	}
	if req.Object == "" {
		req.Object = "E"
	}
	if req.Window <= 0 || req.Window > m.cfg.Window {
		req.Window = m.cfg.Window
	}
	if req.CheckEvery <= 0 || req.CheckEvery > m.cfg.CheckEvery {
		req.CheckEvery = m.cfg.CheckEvery
	}
	s, err := stream.New(sp, stream.Config{
		Window:     req.Window,
		CheckEvery: req.CheckEvery,
		Metrics:    m.cfg.Metrics,
	})
	if err != nil {
		return StreamDoc{}, &RequestError{Err: err}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	// Drain sets draining before it takes the lock to close every open
	// stream, so a stream added here is either refused or closed by it.
	if m.draining.Load() {
		s.Close()
		return StreamDoc{}, ErrDraining
	}
	if m.live() >= m.cfg.MaxStreams {
		s.Close()
		m.cShed.Inc()
		return StreamDoc{}, &OverloadError{Cause: "open-stream bound reached", RetryAfter: time.Second}
	}
	m.nextID++
	id := fmt.Sprintf("s%06d", m.nextID)
	doc := StreamDoc{
		Schema:    StreamSchema,
		ID:        id,
		Client:    client,
		State:     StreamOpen,
		Request:   req,
		CreatedNS: time.Now().UnixNano(),
		Verdict:   s.Verdict(),
		engine:    s,
	}
	if m.cfg.IdleTimeout > 0 {
		doc.idle = time.AfterFunc(m.cfg.IdleTimeout, func() { m.reapIdle(id) })
	}
	m.add(id, doc)
	m.cOpened.Inc()
	m.gOpen.Set(int64(m.live()))
	m.log.Info("stream opened", "id", id, "client", client,
		"spec", req.Spec, "engine", doc.Verdict.Engine, "window", req.Window)
	return doc, nil
}

// Feed parses one batch of events (the line-oriented history
// interchange format) and feeds it to the stream in order. A batch that
// does not parse is refused whole with a *RequestError citing its
// batch:<line>, and nothing of it is fed. A parsed event that the stream
// rejects stops the batch with a *RequestError; the events before it in
// the batch stay fed.
func (m *StreamManager) Feed(id, batch string) (StreamDoc, error) {
	h, err := history.ParseFileLimited("batch", batch, history.Limits{
		MaxBytes:  m.cfg.MaxBatchBytes,
		MaxEvents: m.cfg.MaxBatchEvents,
	})
	if err != nil {
		return StreamDoc{}, &RequestError{Err: err}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.find(id)
	if d == nil {
		return StreamDoc{}, ErrNotFound
	}
	if d.State != StreamOpen {
		return *d, &RequestError{Err: errors.New("stream is closed")}
	}
	if d.idle != nil {
		d.idle.Reset(m.cfg.IdleTimeout)
	}
	var feedErr error
	fed := 0
	for _, ev := range h {
		if err := d.engine.Feed(ev); err != nil {
			feedErr = &RequestError{Err: fmt.Errorf("event %d of batch: %w", fed, err)}
			break
		}
		fed++
	}
	m.cEvents.Add(int64(fed))
	d.Verdict = d.engine.Verdict()
	m.publish(id)
	return *d, feedErr
}

// Close runs the stream's end-of-stream checks and returns the final
// document. Idempotent per stream.
func (m *StreamManager) Close(id string) (StreamDoc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.find(id)
	if d == nil {
		return StreamDoc{}, ErrNotFound
	}
	return m.closeLocked(d, "closed by client"), nil
}

// closeLocked finalizes one stream: Close the checker, keep its final
// verdict in the doc and drop the engine, notify subscribers and hand the
// doc to OnClose.
func (m *StreamManager) closeLocked(d *StreamDoc, why string) StreamDoc {
	if d.State != StreamOpen {
		return *d
	}
	if d.idle != nil {
		d.idle.Stop()
	}
	d.Verdict = d.engine.Close()
	d.State = StreamClosed
	d.ClosedNS = time.Now().UnixNano()
	d.engine, d.idle = nil, nil
	doc := *d
	m.publish(doc.ID)
	m.cClosed.Inc()
	m.gOpen.Set(int64(m.live()))
	m.log.Info("stream closed", "id", doc.ID, "why", why,
		"verdict", doc.Verdict.String(), "events", doc.Verdict.Events)
	if m.cfg.OnClose != nil {
		go m.cfg.OnClose(doc)
	}
	return doc
}

// reapIdle closes a stream that outlived IdleTimeout without events.
func (m *StreamManager) reapIdle(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d := m.find(id); d != nil {
		m.closeLocked(d, "idle timeout")
	}
}

// Cancel aborts a stream's in-flight fallback re-checks and closes it;
// the final verdict degrades rather than blocks.
func (m *StreamManager) Cancel(id string) (StreamDoc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.find(id)
	if d == nil {
		return StreamDoc{}, ErrNotFound
	}
	if d.engine != nil {
		d.engine.Cancel()
	}
	return m.closeLocked(d, "canceled by client"), nil
}

// Stopping is closed when Drain begins; SSE watches use it to end
// their streams with a drain event.
func (m *StreamManager) Stopping() <-chan struct{} { return m.stopCh }

// Drain refuses new opens and closes every open stream, computing final
// verdicts. Unlike jobs, streams are connection-era state: they are not
// journaled, and clients of a restarted daemon re-open and re-feed.
func (m *StreamManager) Drain() {
	if !m.draining.CompareAndSwap(false, true) {
		return
	}
	close(m.stopCh)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.unended() {
		m.closeLocked(d, "daemon draining")
	}
}
