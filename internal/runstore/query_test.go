package runstore

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"
)

func TestParseQuery(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	q, err := ParseQuery("runs tool=cald verdict=UNKNOWN since=24h limit=20 spec=register", now)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode != ModeRuns || q.Tool != "cald" || q.Verdict != "UNKNOWN" || q.Limit != 20 {
		t.Fatalf("parsed = %+v", q)
	}
	if !q.Since.Equal(now.Add(-24 * time.Hour)) {
		t.Fatalf("since = %v", q.Since)
	}
	if q.Labels["spec"] != "register" {
		t.Fatalf("labels = %v", q.Labels)
	}

	q, err = ParseQuery("regressions table=B3 top=5 baseline=bench-a current=bench-b", now)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode != ModeRegressions || q.Table != "B3" || q.Top != 5 ||
		q.Baseline != "bench-a" || q.Current != "bench-b" {
		t.Fatalf("parsed = %+v", q)
	}

	// Bare key=value terms default to runs mode; "deltas" aliases
	// regressions; dates parse as instants.
	if q, err := ParseQuery("tool=calbench", now); err != nil || q.Mode != ModeRuns {
		t.Fatalf("bare terms: %+v (err %v)", q, err)
	}
	if q, err := ParseQuery("deltas", now); err != nil || q.Mode != ModeRegressions {
		t.Fatalf("deltas alias: %+v (err %v)", q, err)
	}
	q, err = ParseQuery("runs since=2026-08-07 until=2026-08-08T06:00:00Z", now)
	if err != nil {
		t.Fatal(err)
	}
	if q.Since != time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC) ||
		q.Until != time.Date(2026, 8, 8, 6, 0, 0, 0, time.UTC) {
		t.Fatalf("instants = %v / %v", q.Since, q.Until)
	}

	for _, bad := range []string{"frobnicate tool=x", "runs tool", "runs limit=-1", "runs since=whenever", "runs top=x"} {
		if _, err := ParseQuery(bad, now); err == nil {
			t.Errorf("ParseQuery(%q) accepted", bad)
		}
	}
}

func TestQueryFromValues(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	vals := url.Values{
		"mode":   {"regressions"},
		"table":  {"B1"},
		"top":    {"3"},
		"format": {"html"}, // presentation key, not a term
		"label":  {"spec:register", "engine:dfs"},
		"since":  {"720h"},
	}
	q, err := QueryFromValues(vals, now)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode != ModeRegressions || q.Table != "B1" || q.Top != 3 {
		t.Fatalf("query = %+v", q)
	}
	if q.Labels["spec"] != "register" || q.Labels["engine"] != "dfs" {
		t.Fatalf("labels = %v", q.Labels)
	}
	if !q.Since.Equal(now.Add(-720 * time.Hour)) {
		t.Fatalf("since = %v", q.Since)
	}
	if _, err := QueryFromValues(url.Values{"mode": {"nope"}}, now); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := QueryFromValues(url.Values{"label": {"noseparator"}}, now); err == nil {
		t.Error("bad label accepted")
	}
	if _, err := QueryFromValues(url.Values{"fleet": {"1"}}, now); err == nil {
		t.Error("unknown key accepted")
	}
}

func benchAt(gen string, rate float64) *Bench {
	return &Bench{
		GOMAXPROCS: 4, Window: "60ms", Generated: gen,
		Tables: []BenchTable{{
			ID: "B1", Title: "stack", ColumnLabel: "goroutines", Columns: []int{1, 4},
			Rows: []BenchRow{
				{Name: "treiber", OpsPerSec: []float64{rate, rate * 2}},
				{Name: "mutex", OpsPerSec: []float64{rate / 2, rate}},
			},
		}},
	}
}

func TestRunQueries(t *testing.T) {
	s := NewRing(64, nil)
	// Three trajectory points plus report noise.
	for i, gen := range []string{"2026-08-01T00:00:00Z", "2026-08-04T00:00:00Z", "2026-08-08T00:00:00Z"} {
		doc := benchAt(gen, float64(100*(i+1)))
		if err := s.Put(BenchRecord("", doc)); err != nil {
			t.Fatal(err)
		}
	}
	viol := reportRecord("cald", "VIOLATION", time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC))
	viol.Labels = map[string]string{"spec": "queue"}
	if err := s.Put(viol); err != nil {
		t.Fatal(err)
	}

	// Runs mode: Total counts before Limit; summaries carry the labels.
	res, err := Run(s, Query{Mode: ModeRuns, Filter: Filter{Limit: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != QuerySchema || res.Total != 4 || len(res.Runs) != 2 {
		t.Fatalf("runs result = %+v", res)
	}
	res, _ = Run(s, Query{Filter: Filter{Verdict: "VIOLATION"}})
	if len(res.Runs) != 1 || res.Runs[0].Labels["spec"] != "queue" {
		t.Fatalf("violation query = %+v", res)
	}

	// Regressions default to newest vs newest-older bench records,
	// ignoring the interleaved report record.
	res, err = Run(s, Query{Mode: ModeRegressions})
	if err != nil {
		t.Fatal(err)
	}
	if res.CurrentTime != "2026-08-08T00:00:00Z" || res.BaselineTime != "2026-08-04T00:00:00Z" {
		t.Fatalf("picked %s vs %s", res.CurrentTime, res.BaselineTime)
	}
	if res.Total != 4 || len(res.Deltas) != 4 {
		t.Fatalf("deltas = %+v", res.Deltas)
	}
	// 300 vs 200 = +50% everywhere in this synthetic trajectory.
	for _, d := range res.Deltas {
		if d.Pct != 50 {
			t.Fatalf("delta = %+v", d)
		}
	}

	// Explicit baseline pinning and top-N.
	res, err = Run(s, Query{Mode: ModeRegressions, Baseline: "r-1", Top: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineID != "r-1" || res.Total != 4 || len(res.Deltas) != 2 {
		t.Fatalf("pinned = %+v", res)
	}
	// 300 vs 100 = +200%.
	if res.Deltas[0].Pct != 200 {
		t.Fatalf("pinned delta = %+v", res.Deltas[0])
	}

	// Same-second trajectory points (RFC 3339 is second-granular, and CI
	// records two -auto runs back to back): the default baseline is the
	// record immediately preceding the current one in insertion order,
	// not "strictly older by timestamp" (which would find nothing).
	tied := NewRing(8, nil)
	for i, rate := range []float64{100, 200} {
		doc := benchAt("2026-08-08T00:00:00Z", rate)
		if err := tied.Put(BenchRecord(fmt.Sprintf("tied-%d", i), doc)); err != nil {
			t.Fatal(err)
		}
	}
	tiedRes, err := Run(tied, Query{Mode: ModeRegressions})
	if err != nil {
		t.Fatal(err)
	}
	if tiedRes.CurrentID != "tied-1" || tiedRes.BaselineID != "tied-0" {
		t.Fatalf("same-second picked %s vs %s", tiedRes.CurrentID, tiedRes.BaselineID)
	}

	// Errors: no bench records at all; only one point.
	empty := NewRing(4, nil)
	if _, err := Run(empty, Query{Mode: ModeRegressions}); err == nil {
		t.Error("regressions over empty store accepted")
	}
	one := NewRing(4, nil)
	one.Put(BenchRecord("", benchAt("2026-08-08T00:00:00Z", 100)))
	if _, err := Run(one, Query{Mode: ModeRegressions}); err == nil {
		t.Error("regressions over single point accepted")
	}

	// Renderers cover both modes without panicking and carry the data.
	text := res.Text()
	if !strings.Contains(text, "r-1") || !strings.Contains(text, "+200.0%") {
		t.Fatalf("text = %q", text)
	}
	md := res.Markdown()
	if !strings.Contains(md, "| B1 |") {
		t.Fatalf("markdown = %q", md)
	}
	runsRes, _ := Run(s, Query{})
	if !strings.Contains(runsRes.Text(), "VIOLATION") {
		t.Fatalf("runs text = %q", runsRes.Text())
	}
}

func TestBenchDeltasSkipsUnmatchedCells(t *testing.T) {
	base := benchAt("2026-08-01T00:00:00Z", 100)
	cur := benchAt("2026-08-02T00:00:00Z", 90)
	// A column only the current side has, a zero baseline cell, and a
	// row only the current side has.
	cur.Tables[0].Columns = []int{1, 8}
	base.Tables[0].Rows[0].OpsPerSec[0] = 0
	cur.Tables[0].Rows = append(cur.Tables[0].Rows, BenchRow{Name: "new", OpsPerSec: []float64{1, 2}})

	deltas, skipped := BenchDeltas(base, cur, "")
	// Comparable: only ("mutex", col 1). Skipped: treiber col 1 (zero
	// base), cols 8 x2 (no base column), row "new" (1 skip).
	if len(deltas) != 1 || deltas[0].Row != "mutex" || deltas[0].Column != 1 {
		t.Fatalf("deltas = %+v", deltas)
	}
	if deltas[0].Pct != -10 {
		t.Fatalf("pct = %v", deltas[0].Pct)
	}
	if skipped != 4 {
		t.Fatalf("skipped = %d, want 4", skipped)
	}
	// Table filter.
	if d, _ := BenchDeltas(base, cur, "nope"); len(d) != 0 {
		t.Fatalf("filtered deltas = %+v", d)
	}
}

// TestCommittedTrajectoryDeltas is the acceptance pin: ingest the two
// committed BENCH_*.json trajectories from the repo root and prove the
// regression query returns the per-cell deltas those files imply.
func TestCommittedTrajectoryDeltas(t *testing.T) {
	load := func(path string) *Bench {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Skipf("committed trajectory missing: %v", err)
		}
		var doc Bench
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		return &doc
	}
	older := load("../../BENCH_2026-08-06.json")
	newer := load("../../BENCH_2026-08-08.json")
	if !older.GeneratedTime().Before(newer.GeneratedTime()) {
		t.Fatalf("trajectory order: %s !< %s", older.Generated, newer.Generated)
	}

	s := openTestFS(t, t.TempDir(), FSOptions{})
	defer s.Close()
	// Ingest out of lexical order to prove selection is by timestamp.
	if err := s.Put(BenchRecord("bench-new", newer)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(BenchRecord("bench-old", older)); err != nil {
		t.Fatal(err)
	}

	res, err := Run(s, Query{Mode: ModeRegressions})
	if err != nil {
		t.Fatal(err)
	}
	if res.CurrentID != "bench-new" || res.BaselineID != "bench-old" {
		t.Fatalf("picked %s vs %s, want newest-by-timestamp", res.CurrentID, res.BaselineID)
	}

	// Recompute every comparable cell straight from the parsed files
	// and require exact agreement.
	want := map[string]float64{}
	wantDeltas, _ := BenchDeltas(older, newer, "")
	for _, d := range wantDeltas {
		want[d.Cell()] = d.Pct
	}
	if len(res.Deltas) == 0 || len(res.Deltas) != len(wantDeltas) {
		t.Fatalf("deltas = %d, want %d", len(res.Deltas), len(wantDeltas))
	}
	for _, d := range res.Deltas {
		exp, ok := want[d.Cell()]
		if !ok || d.Pct != exp {
			t.Fatalf("cell %s: pct %v, want %v", d.Cell(), d.Pct, exp)
		}
		// And the percent is what the raw rates imply.
		if got := (d.Cur - d.Base) / d.Base * 100; got != d.Pct {
			t.Fatalf("cell %s: pct %v inconsistent with rates (%v)", d.Cell(), d.Pct, got)
		}
	}
	// Worst-first ordering.
	for i := 1; i < len(res.Deltas); i++ {
		if res.Deltas[i].Pct < res.Deltas[i-1].Pct {
			t.Fatalf("deltas not worst-first at %d", i)
		}
	}
	// Table restriction and top-N against the same ground truth.
	resB1, err := Run(s, Query{Mode: ModeRegressions, Table: "B1", Top: 1})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := BenchDeltas(older, newer, "B1")
	if resB1.Total != len(b1) || len(resB1.Deltas) != 1 || resB1.Deltas[0].Pct != b1[0].Pct {
		t.Fatalf("B1 top-1 = %+v, want %+v", resB1.Deltas, b1[0])
	}
}
