// Package runstore is the persistent run-history store behind the obs
// stack: one queryable substrate for every completed run record the
// tools produce — calgo.report/v1 documents from checks, explorations
// and cald jobs, and calbench perf-trajectory tables — replacing the
// loose BENCH_*.json files and the in-process /runsz slices that used
// to vanish on exit.
//
// The package has two layers:
//
//   - Store: a Put/Get/List interface over run records, with two
//     backends — an in-memory bounded Ring (the default behind every
//     /runsz endpoint) and a durable filesystem store (append-only
//     JSON-lines segments with an index sidecar, fsynced writes and
//     corrupt-line-skipping replay, in the style of the cald jobs
//     journal).
//   - Query: label selectors, time ranges and per-cell regression
//     deltas against a chosen baseline record, serving `calreport
//     -query`, the /queryz endpoint and `calbench -auto` baseline
//     selection.
//
// Questions like "which B3 cell regressed >5% in 30 days" or "what
// fraction of cald jobs ended UNKNOWN last week" become one query
// each; see EXPERIMENTS.md ("Run-history store").
package runstore

import (
	"context"
	"fmt"
	"time"

	"calgo/internal/render"
)

// RecordSchema versions the run-record JSON document stored in the
// filesystem segments and served by /runsz; the shape is specified in
// EXPERIMENTS.md ("Run-history store").
const RecordSchema = "calgo.run/v1"

// Record kinds: a report record wraps a calgo.report/v1 document (one
// check/exploration/job/stream verdict), a bench record wraps one
// calbench trajectory document (the former BENCH_<date>.json).
const (
	KindReport = "report"
	KindBench  = "bench"
)

// Record is one completed run in the store: the wrapped document plus
// the labels the query layer selects on. Tool, Kind, Verdict and the
// timestamp are first-class; everything run-specific (spec, mode,
// engine, object, client, ...) goes in Labels. The label vocabulary is
// pinned in EXPERIMENTS.md.
type Record struct {
	Schema string `json:"schema"`
	// ID is unique within a store. Put assigns "r-<n>" when empty;
	// putting an existing ID replaces that record (newest wins on
	// filesystem replay).
	ID   string `json:"id"`
	Tool string `json:"tool,omitempty"`
	// Kind is KindReport or KindBench.
	Kind string `json:"kind"`
	// Verdict is the CLI vocabulary (OK, VIOLATION, UNKNOWN) — the worst
	// verdict of the wrapped report's runs; empty for bench records.
	Verdict string `json:"verdict,omitempty"`
	// TimeNS is the record's event time (completion for reports,
	// generation for bench tables). Put stamps the wall clock when zero.
	TimeNS int64             `json:"time_unix_ns"`
	Labels map[string]string `json:"labels,omitempty"`

	// Deleted marks a tombstone line in the filesystem segments: the
	// newest occurrence of an ID being a tombstone means the record is
	// gone (retention wrote it), surviving crash-replay by the same
	// newest-occurrence-wins rule as upserts. Tombstones never surface
	// from Get/List.
	Deleted bool `json:"deleted,omitempty"`

	// Report is the wrapped calgo.report/v1 document (KindReport).
	Report *render.Report `json:"report,omitempty"`
	// Bench is the wrapped perf-trajectory document (KindBench).
	Bench *Bench `json:"bench,omitempty"`
}

// Time returns the record's event time.
func (r *Record) Time() time.Time { return time.Unix(0, r.TimeNS) }

// normalize stamps defaults onto a record at Put time.
func (r *Record) normalize(now func() time.Time) {
	if r.Schema == "" {
		r.Schema = RecordSchema
	}
	if r.Kind == "" {
		if r.Bench != nil {
			r.Kind = KindBench
		} else {
			r.Kind = KindReport
		}
	}
	if r.TimeNS == 0 {
		r.TimeNS = now().UnixNano()
	}
	if r.Tool == "" && r.Report != nil {
		r.Tool = r.Report.Tool
	}
	if r.Verdict == "" && r.Report != nil {
		r.Verdict = worstVerdict(r.Report)
	}
}

// worstVerdict folds a report's per-run verdicts into one word:
// VIOLATION beats UNKNOWN beats OK; a runless report falls back to the
// exit-code legend.
func worstVerdict(rep *render.Report) string {
	worst := ""
	rank := map[string]int{"OK": 1, "UNKNOWN": 2, "VIOLATION": 3}
	for _, run := range rep.Runs {
		if rank[run.Verdict] > rank[worst] {
			worst = run.Verdict
		}
	}
	if worst != "" {
		return worst
	}
	switch rep.Exit {
	case 0:
		return "OK"
	case 1:
		return "VIOLATION"
	case 3:
		return "UNKNOWN"
	}
	return ""
}

// Filter selects records. Zero fields match everything; all set fields
// must match (AND). Label selectors match against the record's Labels
// map only; Tool/Verdict/Kind/ID match the first-class fields.
type Filter struct {
	ID      string
	Tool    string
	Verdict string
	Kind    string
	Labels  map[string]string
	// Since/Until bound the record time: Since <= t < Until (zero = open).
	Since time.Time
	Until time.Time
	// Limit keeps only the newest Limit matches (0 = all).
	Limit int
}

// Match reports whether r passes the filter (ignoring Limit, which is
// applied across the result set).
func (f Filter) Match(r *Record) bool {
	if r == nil {
		return false
	}
	if f.ID != "" && r.ID != f.ID {
		return false
	}
	if f.Tool != "" && r.Tool != f.Tool {
		return false
	}
	if f.Verdict != "" && r.Verdict != f.Verdict {
		return false
	}
	if f.Kind != "" && r.Kind != f.Kind {
		return false
	}
	for k, v := range f.Labels {
		if r.Labels[k] != v {
			return false
		}
	}
	if !f.Since.IsZero() && r.TimeNS < f.Since.UnixNano() {
		return false
	}
	if !f.Until.IsZero() && r.TimeNS >= f.Until.UnixNano() {
		return false
	}
	return true
}

// Store is the run-history store: Put upserts by record ID (assigning
// an ID when empty), Get fetches one record, List returns matches in
// ascending time order (ties by insertion order), applying
// Filter.Limit to keep the newest. Implementations are safe for
// concurrent use.
type Store interface {
	Put(*Record) error
	Get(id string) (*Record, bool, error)
	List(Filter) ([]*Record, error)
	// Len is the number of live records.
	Len() int
	Close() error
}

// ContextLister is optionally implemented by stores whose List can
// honor cancellation mid-scan — the filesystem backend checks between
// disk reads. ListContext is the uniform entry point.
type ContextLister interface {
	ListContext(context.Context, Filter) ([]*Record, error)
}

// ListContext lists via the store's context-aware path when it has
// one, and otherwise brackets the plain List with cancellation checks,
// so an ops handler serving a cancelled request never starts (or keeps
// serving) a doomed scan.
func ListContext(ctx context.Context, st Store, f Filter) ([]*Record, error) {
	if cl, ok := st.(ContextLister); ok {
		return cl.ListContext(ctx, f)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	recs, err := st.List(f)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// Retention is a store retention policy beyond superseded-record GC.
// Zero fields are unbounded; set fields AND together — a record
// survives only if it passes every bound.
type Retention struct {
	// MaxAge expires records older than now-MaxAge (0 = no age bound).
	MaxAge time.Duration
	// MaxRecords keeps only the newest MaxRecords records overall
	// (0 = unbounded).
	MaxRecords int
	// KeepPerKind keeps only the newest N records of each listed kind
	// (kinds not listed are unaffected by this bound).
	KeepPerKind map[string]int
}

// Empty reports whether the policy bounds nothing.
func (p Retention) Empty() bool {
	return p.MaxAge <= 0 && p.MaxRecords <= 0 && len(p.KeepPerKind) == 0
}

func (p Retention) String() string {
	if p.Empty() {
		return "unbounded"
	}
	s := ""
	if p.MaxAge > 0 {
		s += fmt.Sprintf("max-age=%s ", p.MaxAge)
	}
	if p.MaxRecords > 0 {
		s += fmt.Sprintf("max-records=%d ", p.MaxRecords)
	}
	for k, n := range p.KeepPerKind {
		s += fmt.Sprintf("keep-%s=%d ", k, n)
	}
	return s[:len(s)-1]
}

// retMeta is the slice element expire selects over: just enough of a
// record to apply the policy without materializing bodies.
type retMeta struct {
	id     string
	kind   string
	timeNS int64
}

// expire returns the IDs a policy drops from metas at time now,
// applying every set bound. Ties on the timestamp keep the later slice
// element (insertion order), matching List's ordering.
func (p Retention) expire(metas []retMeta, now time.Time) []string {
	if p.Empty() || len(metas) == 0 {
		return nil
	}
	// Newest-first by time, later insertion winning ties.
	ordered := make([]retMeta, len(metas))
	copy(ordered, metas)
	for i, j := 0, len(ordered)-1; i < j; i, j = i+1, j-1 {
		ordered[i], ordered[j] = ordered[j], ordered[i]
	}
	stableSortBy(ordered, func(a, b retMeta) bool { return a.timeNS > b.timeNS })
	cutoff := int64(0)
	if p.MaxAge > 0 {
		cutoff = now.Add(-p.MaxAge).UnixNano()
	}
	var victims []string
	perKind := make(map[string]int)
	for rank, m := range ordered {
		perKind[m.kind]++
		switch {
		case cutoff != 0 && m.timeNS < cutoff:
			victims = append(victims, m.id)
		case p.MaxRecords > 0 && rank >= p.MaxRecords:
			victims = append(victims, m.id)
		default:
			if n, ok := p.KeepPerKind[m.kind]; ok && perKind[m.kind] > n {
				victims = append(victims, m.id)
			}
		}
	}
	return victims
}

// stableSortBy is sort.SliceStable without the reflection-heavy
// closure signature at every call site.
func stableSortBy[T any](s []T, less func(a, b T) bool) {
	// Insertion sort: retention sweeps run on metadata slices whose
	// order is already nearly time-ascending, where this is O(n).
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Retainer is implemented by backends that can apply a retention
// policy; Retain returns how many records the sweep expired.
type Retainer interface {
	Retain(Retention) (int, error)
}

// Latest returns the newest record matching f, or nil when none match.
func Latest(st Store, f Filter) (*Record, error) {
	return latestContext(context.Background(), st, f)
}

func latestContext(ctx context.Context, st Store, f Filter) (*Record, error) {
	f.Limit = 1
	recs, err := ListContext(ctx, st, f)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, nil
	}
	return recs[len(recs)-1], nil
}

// applyLimit keeps the newest limit records of an ascending-time
// slice (0 = all).
func applyLimit(recs []*Record, limit int) []*Record {
	if limit > 0 && len(recs) > limit {
		recs = recs[len(recs)-limit:]
	}
	return recs
}

// DefaultMaxList is the server-side result bound of /runsz and /queryz
// when the ops server does not choose: an unbounded (or absurd) client
// limit is clamped here so one curl cannot make the daemon serialize
// its whole history in one response.
const DefaultMaxList = 1000

// ErrClosed is returned by operations on a closed store.
var ErrClosed = fmt.Errorf("runstore: store closed")
