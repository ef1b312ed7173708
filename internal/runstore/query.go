package runstore

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"
)

// QuerySchema versions the query-result JSON document served by
// /queryz and `calreport -query -o *.json`; the shape is specified in
// EXPERIMENTS.md ("Run-history store").
const QuerySchema = "calgo.query/v1"

// Query modes: runs lists matching run records, regressions computes
// per-cell deltas between two bench records of the trajectory.
const (
	ModeRuns        = "runs"
	ModeRegressions = "regressions"
)

// Query is one question against a Store, parsed from a `calreport
// -query` expression or /queryz URL parameters.
type Query struct {
	// Mode is ModeRuns (default) or ModeRegressions.
	Mode string
	// Filter selects the records considered (runs mode: the result set;
	// regressions mode: the bench records eligible as baseline/current).
	Filter
	// Baseline / Current pick the two compared records by ID in
	// regressions mode; empty defaults to the newest matching bench
	// record (Current) and the newest one before it (Baseline).
	Baseline string
	Current  string
	// Table restricts regressions to one bench table ID ("" = all).
	Table string
	// Top keeps only the N worst deltas (0 = all).
	Top int
}

// Result is the calgo.query/v1 document.
type Result struct {
	Schema string `json:"schema"`
	Mode   string `json:"mode"`
	// Total is the number of matches before Limit (runs mode) or the
	// number of comparable cells before Top (regressions mode).
	Total int `json:"total"`
	// Runs summarizes the matching records, ascending by time.
	Runs []Summary `json:"runs,omitempty"`
	// Regression fields: the compared record IDs, the (top) deltas
	// worst-first, and how many cells only one side had.
	BaselineID   string      `json:"baseline_id,omitempty"`
	BaselineTime string      `json:"baseline_time,omitempty"`
	CurrentID    string      `json:"current_id,omitempty"`
	CurrentTime  string      `json:"current_time,omitempty"`
	Deltas       []CellDelta `json:"deltas,omitempty"`
	Skipped      int         `json:"skipped_cells,omitempty"`
}

// Summary is one run record without its wrapped document — enough to
// answer "what fraction of cald jobs ended UNKNOWN last week" without
// shipping every report body.
type Summary struct {
	ID      string            `json:"id"`
	Tool    string            `json:"tool,omitempty"`
	Kind    string            `json:"kind"`
	Verdict string            `json:"verdict,omitempty"`
	Time    string            `json:"time"` // RFC 3339
	Labels  map[string]string `json:"labels,omitempty"`
	// Detail is the first run's detail line for report records, the
	// table count for bench records.
	Detail string `json:"detail,omitempty"`
}

func summarize(r *Record) Summary {
	s := Summary{
		ID: r.ID, Tool: r.Tool, Kind: r.Kind, Verdict: r.Verdict,
		Time: r.Time().UTC().Format(time.RFC3339), Labels: r.Labels,
	}
	switch {
	case r.Report != nil && len(r.Report.Runs) > 0:
		s.Detail = r.Report.Runs[0].Name
		if d := r.Report.Runs[0].Detail; d != "" {
			s.Detail += ": " + d
		}
	case r.Bench != nil:
		s.Detail = fmt.Sprintf("%d tables, window %s", len(r.Bench.Tables), r.Bench.Window)
	}
	return s
}

// ParseQuery parses a -query expression: an optional leading verb
// ("runs" or "regressions") followed by space-separated key=value
// terms. Reserved keys — tool, verdict, kind, id, since, until, limit,
// baseline, current, table, top — fill the query; every other key is a
// label selector. since/until accept either a Go duration back from
// now ("720h") or an RFC 3339 / YYYY-MM-DD instant.
//
//	runs tool=cald verdict=UNKNOWN since=168h limit=20
//	regressions table=B3 top=5
func ParseQuery(expr string, now time.Time) (Query, error) {
	q := Query{Mode: ModeRuns}
	fields := strings.Fields(expr)
	for i, f := range fields {
		if i == 0 && !strings.Contains(f, "=") {
			switch f {
			case ModeRuns:
			case ModeRegressions, "deltas":
				q.Mode = ModeRegressions
			default:
				return q, fmt.Errorf("runstore: unknown query verb %q (want runs or regressions)", f)
			}
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok || k == "" || v == "" {
			return q, fmt.Errorf("runstore: bad query term %q (want key=value)", f)
		}
		reserved, err := q.setTerm(k, v, now)
		if err != nil {
			return q, err
		}
		if !reserved {
			q.addLabel(k, v)
		}
	}
	return q, nil
}

// QueryFromValues builds the same query from /queryz URL parameters:
// ?mode=, plus one parameter per ParseQuery key; unrecognized keys are
// rejected (labels go in ?label=k:v, repeatable).
func QueryFromValues(vals url.Values, now time.Time) (Query, error) {
	q := Query{Mode: ModeRuns}
	if m := vals.Get("mode"); m != "" {
		switch m {
		case ModeRuns:
		case ModeRegressions, "deltas":
			q.Mode = ModeRegressions
		default:
			return q, fmt.Errorf("runstore: unknown mode %q (want runs or regressions)", m)
		}
	}
	for k, vs := range vals {
		if k == "mode" || k == "format" || len(vs) == 0 {
			continue
		}
		if k == "label" {
			for _, v := range vs {
				lk, lv, ok := strings.Cut(v, ":")
				if !ok {
					return q, fmt.Errorf("runstore: bad label %q (want key:value)", v)
				}
				q.addLabel(lk, lv)
			}
			continue
		}
		reserved, err := q.setTerm(k, vs[0], now)
		if err != nil {
			return q, err
		}
		if !reserved {
			return q, fmt.Errorf("runstore: unknown query parameter %q (labels go in ?label=%s:value)", k, k)
		}
	}
	return q, nil
}

// addLabel adds one label selector.
func (q *Query) addLabel(k, v string) {
	if q.Labels == nil {
		q.Labels = map[string]string{}
	}
	q.Labels[k] = v
}

// setTerm applies one reserved key=value term; reserved is false when
// k is not a reserved key (ParseQuery reads it as a label selector,
// QueryFromValues rejects it).
func (q *Query) setTerm(k, v string, now time.Time) (reserved bool, err error) {
	switch k {
	case "tool":
		q.Tool = v
	case "verdict":
		q.Verdict = v
	case "kind":
		q.Kind = v
	case "id":
		q.ID = v
	case "baseline":
		q.Baseline = v
	case "current":
		q.Current = v
	case "table":
		q.Table = v
	case "since":
		t, err := parseInstant(v, now)
		if err != nil {
			return true, fmt.Errorf("runstore: bad since=%q: %w", v, err)
		}
		q.Since = t
	case "until":
		t, err := parseInstant(v, now)
		if err != nil {
			return true, fmt.Errorf("runstore: bad until=%q: %w", v, err)
		}
		q.Until = t
	case "limit":
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return true, fmt.Errorf("runstore: bad limit=%q", v)
		}
		q.Limit = n
	case "top":
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return true, fmt.Errorf("runstore: bad top=%q", v)
		}
		q.Top = n
	default:
		return false, nil
	}
	return true, nil
}

// parseInstant accepts a duration back from now, an RFC 3339 instant,
// or a bare date.
func parseInstant(v string, now time.Time) (time.Time, error) {
	if d, err := time.ParseDuration(v); err == nil {
		return now.Add(-d), nil
	}
	if t, err := time.Parse(time.RFC3339, v); err == nil {
		return t, nil
	}
	if t, err := time.Parse("2006-01-02", v); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("want a duration (720h), RFC 3339 instant, or YYYY-MM-DD date")
}

// Run executes q against the store.
func Run(st Store, q Query) (*Result, error) {
	return RunContext(context.Background(), st, q)
}

// RunContext executes q against the store, honoring cancellation.
func RunContext(ctx context.Context, st Store, q Query) (*Result, error) {
	switch q.Mode {
	case "", ModeRuns:
		return runRuns(ctx, st, q)
	case ModeRegressions:
		return runRegressions(ctx, st, q)
	}
	return nil, fmt.Errorf("runstore: unknown query mode %q", q.Mode)
}

func runRuns(ctx context.Context, st Store, q Query) (*Result, error) {
	unlimited := q.Filter
	unlimited.Limit = 0
	recs, err := ListContext(ctx, st, unlimited)
	if err != nil {
		return nil, err
	}
	res := &Result{Schema: QuerySchema, Mode: ModeRuns, Total: len(recs)}
	for _, r := range applyLimit(recs, q.Limit) {
		res.Runs = append(res.Runs, summarize(r))
	}
	return res, nil
}

func runRegressions(ctx context.Context, st Store, q Query) (*Result, error) {
	f := q.Filter
	f.Kind = KindBench
	f.Limit = 0
	cur, err := pickRecord(ctx, st, q.Current, f, nil)
	if err != nil {
		return nil, err
	}
	if cur == nil {
		return nil, fmt.Errorf("runstore: no bench records match (need a calbench trajectory in the store)")
	}
	base, err := pickRecord(ctx, st, q.Baseline, f, cur)
	if err != nil {
		return nil, err
	}
	if base == nil {
		return nil, fmt.Errorf("runstore: no baseline bench record older than %s (need at least two trajectory points)", cur.ID)
	}
	if base.Bench == nil || cur.Bench == nil {
		return nil, fmt.Errorf("runstore: record %s/%s is not a bench record", base.ID, cur.ID)
	}
	deltas, skipped := BenchDeltas(base.Bench, cur.Bench, q.Table)
	res := &Result{
		Schema: QuerySchema, Mode: ModeRegressions,
		Total:        len(deltas),
		BaselineID:   base.ID,
		BaselineTime: base.Time().UTC().Format(time.RFC3339),
		CurrentID:    cur.ID,
		CurrentTime:  cur.Time().UTC().Format(time.RFC3339),
		Skipped:      skipped,
	}
	if q.Top > 0 && len(deltas) > q.Top {
		deltas = deltas[:q.Top]
	}
	res.Deltas = deltas
	return res, nil
}

// pickRecord resolves an explicit record ID, or the newest match — or,
// when the `before` anchor is given, the record immediately preceding
// it in the store's ascending time order. Ties on the (second-granular
// RFC 3339) timestamp break by insertion order, so two trajectory
// points recorded within the same second still compare.
func pickRecord(ctx context.Context, st Store, id string, f Filter, before *Record) (*Record, error) {
	if id != "" {
		rec, ok, err := st.Get(id)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("runstore: no record %q", id)
		}
		return rec, nil
	}
	if before == nil {
		return latestContext(ctx, st, f)
	}
	f.Limit = 0
	recs, err := ListContext(ctx, st, f)
	if err != nil {
		return nil, err
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].ID == before.ID {
			if i > 0 {
				return recs[i-1], nil
			}
			return nil, nil
		}
	}
	// `before` was named by explicit ID and doesn't match the filter;
	// fall back to the newest record strictly older than it.
	f.Until = before.Time()
	rec, err := latestContext(ctx, st, f)
	if err != nil || rec == nil || rec.ID != before.ID {
		return rec, err
	}
	return nil, nil
}

// Text renders the result as an aligned human-readable table — the
// `calreport -query` stdout form.
func (r *Result) Text() string {
	var b strings.Builder
	switch r.Mode {
	case ModeRegressions:
		fmt.Fprintf(&b, "regressions: %s (%s) vs baseline %s (%s)\n",
			r.CurrentID, r.CurrentTime, r.BaselineID, r.BaselineTime)
		fmt.Fprintf(&b, "%-6s %-28s %8s %14s %14s %9s\n", "table", "row", "column", "base", "current", "delta")
		for _, d := range r.Deltas {
			fmt.Fprintf(&b, "%-6s %-28s %8d %14.0f %14.0f %+8.1f%%\n",
				d.Table, d.Row, d.Column, d.Base, d.Cur, d.Pct)
		}
		if len(r.Deltas) < r.Total {
			fmt.Fprintf(&b, "(%d of %d cells shown; raise top=)\n", len(r.Deltas), r.Total)
		}
		if r.Skipped > 0 {
			fmt.Fprintf(&b, "%d cell(s) present on only one side were not compared\n", r.Skipped)
		}
	default:
		fmt.Fprintf(&b, "%-10s %-20s %-10s %-6s %-9s %s\n", "id", "time", "tool", "kind", "verdict", "detail")
		for _, s := range r.Runs {
			detail := s.Detail
			if len(s.Labels) > 0 {
				detail = labelString(s.Labels) + " " + detail
			}
			fmt.Fprintf(&b, "%-10s %-20s %-10s %-6s %-9s %s\n",
				s.ID, s.Time, s.Tool, s.Kind, s.Verdict, strings.TrimSpace(detail))
		}
		if len(r.Runs) < r.Total {
			fmt.Fprintf(&b, "(%d of %d records shown; raise limit=)\n", len(r.Runs), r.Total)
		}
	}
	return b.String()
}

// Markdown renders the result as a Markdown table — the `calreport
// -query -o *.md` form.
func (r *Result) Markdown() string {
	var b strings.Builder
	switch r.Mode {
	case ModeRegressions:
		fmt.Fprintf(&b, "# Regression query\n\ncurrent `%s` (%s) vs baseline `%s` (%s)\n\n",
			r.CurrentID, r.CurrentTime, r.BaselineID, r.BaselineTime)
		b.WriteString("| table | row | column | base | current | delta |\n|---|---|---:|---:|---:|---:|\n")
		for _, d := range r.Deltas {
			fmt.Fprintf(&b, "| %s | %s | %d | %.0f | %.0f | %+.1f%% |\n",
				d.Table, d.Row, d.Column, d.Base, d.Cur, d.Pct)
		}
		if r.Skipped > 0 {
			fmt.Fprintf(&b, "\n%d cell(s) present on only one side were not compared.\n", r.Skipped)
		}
	default:
		b.WriteString("# Run-history query\n\n| id | time | tool | kind | verdict | detail |\n|---|---|---|---|---|---|\n")
		for _, s := range r.Runs {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n",
				s.ID, s.Time, s.Tool, s.Kind, s.Verdict, s.Detail)
		}
	}
	return b.String()
}

func labelString(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}
