// Package obs is the library's zero-dependency observability layer: a
// registry of atomic counters, gauges and histograms exportable as JSON
// and expvar (Metrics); span-style search tracing with a sampling
// structured-log tracer and a ring-buffer flight recorder (Tracer,
// LogTracer, FlightRecorder); and periodic progress reporting for
// long-running searches (Progress, StartProgress).
//
// The layer is built so that *disabled* observability costs nothing on
// the checker and explorer hot paths: every hook site is guarded by a
// nil check, instruments are plain atomics, and Event values are passed
// by value so a no-op tracer allocates nothing. Enabled instruments are
// safe for concurrent use — the parallel exploration engine hammers
// them from every worker.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SchemaVersion identifies the metrics JSON schema emitted by
// Metrics.Snapshot; bump it when the document shape changes. The schema
// is documented in EXPERIMENTS.md ("Metrics schema").
const SchemaVersion = "calgo.metrics/v1"

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (useful for live in-flight counts).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n exceeds the current value.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// zeros and bucket i>0 holds 2^(i-1) <= v < 2^i. 65 buckets cover every
// non-negative int64.
const histBuckets = 65

// Histogram is an atomic power-of-two-bucket histogram of non-negative
// observations. Negative observations are clamped to zero.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     Gauge
	buckets [histBuckets]atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.max.SetMax(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Value() }

// HistogramSnapshot is the exported form of a Histogram: count, sum,
// max, p50/p90/p99 estimates, and the non-empty power-of-two buckets in
// ascending order. The quantiles are linear interpolations within the
// power-of-two bucket containing the rank, so their error is bounded by
// the bucket width; the top bucket is clamped to Max.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	P50     float64       `json:"p50,omitempty"`
	P90     float64       `json:"p90,omitempty"`
	P99     float64       `json:"p99,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// observations by linear interpolation within the power-of-two bucket
// containing rank q·Count. Returns 0 on an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	lo := int64(0) // exclusive lower bound of the current bucket
	for _, b := range s.Buckets {
		if float64(cum+b.Count) >= rank {
			hi := b.Le
			if hi > s.Max {
				hi = s.Max // the top bucket extends only to the largest observation
			}
			if b.Le == 0 || hi <= lo {
				return float64(hi)
			}
			pos := (rank - float64(cum)) / float64(b.Count)
			// Round away float noise: the bucket interpolation error
			// dwarfs anything past the sixth decimal place.
			return math.Round((float64(lo)+pos*float64(hi-lo))*1e6) / 1e6
		}
		cum += b.Count
		lo = b.Le
	}
	return float64(s.Max)
}

// BucketCount is one non-empty histogram bucket: Count observations v
// with v <= Le (and greater than the previous bucket's Le).
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Max: h.Max()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			le := int64(0)
			if i > 0 {
				le = 1<<uint(i) - 1
			}
			s.Buckets = append(s.Buckets, BucketCount{Le: le, Count: n})
		}
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Metrics is a registry of named counters, gauges and histograms.
// Instrument lookup takes a lock; the returned instruments are lock-free
// atomics, so callers cache them once and update them freely. The zero
// Metrics is ready to use; a nil *Metrics is a valid "disabled" sink for
// the Counter/Gauge/Histogram accessors (they return nil, and every
// update site nil-checks).
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Counter returns the counter registered under name, creating it on
// first use. Returns nil on a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.counters == nil {
		m.counters = make(map[string]*Counter)
	}
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gauges == nil {
		m.gauges = make(map[string]*Gauge)
	}
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil on a nil registry.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.histograms == nil {
		m.histograms = make(map[string]*Histogram)
	}
	h := m.histograms[name]
	if h == nil {
		h = &Histogram{}
		m.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every registered instrument,
// shaped for stable JSON export: map keys marshal in sorted order, so
// two snapshots of the same state render identically.
type Snapshot struct {
	Schema     string                       `json:"schema"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered instrument. Safe to call
// concurrently with updates; individual values are read atomically.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Schema:   SchemaVersion,
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
	}
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, c := range m.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		s.Gauges[name] = g.Value()
	}
	if len(m.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(m.histograms))
		for name, h := range m.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// MarshalJSON renders the registry as its Snapshot document.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Snapshot())
}

// Names returns the sorted names of all registered instruments
// (counters, gauges and histograms interleaved).
func (m *Metrics) Names() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.counters)+len(m.gauges)+len(m.histograms))
	for n := range m.counters {
		names = append(names, n)
	}
	for n := range m.gauges {
		names = append(names, n)
	}
	for n := range m.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BuildInfo resolves the process's build identity: the module version
// (VCS revision when stamped, else the module version, else "devel")
// and the Go runtime version. These are the label values of the
// build_info gauge and the /statusz version fields, letting
// regression queries be correlated with daemon versions.
func BuildInfo() (version, goVersion string) {
	version = "devel"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			version = v
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				version = s.Value[:12]
			}
		}
	}
	return version, runtime.Version()
}

// SetBuildInfo registers the conventional build_info gauge — value 1,
// identity in the labels — under the labeled name
// `build_info{go_version="...",version="..."}`. The exposition layer
// keeps the label block intact, so /metrics serves
// calgo_build_info{...} 1. Safe on a nil registry.
func (m *Metrics) SetBuildInfo(version, goVersion string) {
	if m == nil {
		return
	}
	name := fmt.Sprintf("build_info{go_version=%s,version=%s}",
		quoteLabel(goVersion), quoteLabel(version))
	m.Gauge(name).Set(1)
}

// quoteLabel renders a Prometheus label value: double-quoted with \\,
// \" and \n escaped.
func quoteLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return `"` + r.Replace(v) + `"`
}

// SnapshotMemStats records an allocation snapshot into the registry's
// gauges: heap bytes in use, cumulative allocated bytes, live heap
// objects and completed GC cycles, under the "go." prefix.
func (m *Metrics) SnapshotMemStats() {
	if m == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Gauge("go.heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	m.Gauge("go.total_alloc_bytes").Set(int64(ms.TotalAlloc))
	m.Gauge("go.heap_objects").Set(int64(ms.HeapObjects))
	m.Gauge("go.num_gc").Set(int64(ms.NumGC))
}

// published tracks which registry owns each expvar name this package has
// published, making PublishExpvar idempotent per registry: expvar's own
// registry is global and write-once, but re-publishing the *same* name
// for the *same* registry (e.g. a CLI entry point invoked repeatedly in
// one process) is harmless and must not error.
var (
	publishMu sync.Mutex
	published = map[string]*Metrics{}
)

// PublishExpvar exposes the registry on the process-wide expvar page
// (and therefore on any -serve ops server's /debug/vars)
// under the given name. Publishing the same name again for the same
// registry is a no-op; publishing it for a different registry — or a
// name some other package already took — is an error.
func (m *Metrics) PublishExpvar(name string) error {
	publishMu.Lock()
	defer publishMu.Unlock()
	if prev, ok := published[name]; ok {
		if prev == m {
			return nil
		}
		return fmt.Errorf("obs: expvar %q already published for a different registry", name)
	}
	if expvar.Get(name) != nil {
		return fmt.Errorf("obs: expvar %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
	published[name] = m
	return nil
}
