package runstore

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Bench is the calbench perf-trajectory document (the BENCH_<date>.json
// schema of EXPERIMENTS.md "Performance trajectory"), stored whole in a
// KindBench record so the query layer can compute per-cell regressions
// between any two points of the trajectory.
type Bench struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	Window     string       `json:"window"`
	Generated  string       `json:"generated"` // RFC 3339
	Tables     []BenchTable `json:"tables"`
}

// BenchTable is one sweep table: rates per row (implementation) and
// column (goroutine count, K, or event count — ColumnLabel says which).
type BenchTable struct {
	ID          string     `json:"id"`
	Title       string     `json:"title"`
	ColumnLabel string     `json:"column_label"`
	Columns     []int      `json:"columns"`
	Rows        []BenchRow `json:"rows"`
}

// BenchRow is one implementation's rates across the table's columns.
type BenchRow struct {
	Name      string    `json:"name"`
	OpsPerSec []float64 `json:"ops_per_sec"`
}

// GeneratedTime parses the document's generation timestamp (zero time
// when absent or malformed).
func (b *Bench) GeneratedTime() time.Time {
	t, err := time.Parse(time.RFC3339, b.Generated)
	if err != nil {
		return time.Time{}
	}
	return t
}

// BenchRecord wraps a bench document as a store record: tool calbench,
// kind bench, timestamped from the document's generation time. The ID
// is left for the store to assign (pass a deterministic one for
// idempotent ingestion).
func BenchRecord(id string, doc *Bench) *Record {
	rec := &Record{
		Schema: RecordSchema,
		ID:     id,
		Tool:   "calbench",
		Kind:   KindBench,
		Bench:  doc,
	}
	// An absent generation stamp falls through to Put's wall clock
	// rather than the zero time's enormous negative UnixNano.
	if t := doc.GeneratedTime(); !t.IsZero() {
		rec.TimeNS = t.UnixNano()
	}
	return rec
}

// IngestBenchDir imports every BENCH_*.json in dir into the store
// under the deterministic ID "bench-<basename>", skipping files whose
// ID is already present — so re-opening a store beside committed
// trajectory files preserves the history exactly once. Returns how
// many files were ingested. Unparsable files are skipped with a log
// line, never fatal: one corrupt artifact must not block the store.
func IngestBenchDir(st Store, dir string, log *slog.Logger) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("runstore: ingesting %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(name, "BENCH_") && strings.HasSuffix(name, ".json") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ingested := 0
	for _, name := range names {
		id := "bench-" + strings.TrimSuffix(name, ".json")
		if _, ok, err := st.Get(id); err != nil {
			return ingested, err
		} else if ok {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if log != nil {
				log.Warn("runstore: skipping unreadable trajectory file", "file", name, "err", err)
			}
			continue
		}
		var doc Bench
		if err := json.Unmarshal(b, &doc); err != nil || len(doc.Tables) == 0 {
			if log != nil {
				log.Warn("runstore: skipping unparsable trajectory file", "file", name, "err", err)
			}
			continue
		}
		if err := st.Put(BenchRecord(id, &doc)); err != nil {
			return ingested, err
		}
		ingested++
		if log != nil {
			log.Info("runstore: ingested trajectory file", "file", name, "id", id, "generated", doc.Generated)
		}
	}
	return ingested, nil
}

// CellDelta is one comparable cell of a regression query: the baseline
// and current rates and the percent delta (negative = regression,
// positive = faster than baseline).
type CellDelta struct {
	Table  string  `json:"table"`
	Row    string  `json:"row"`
	Column int     `json:"column"`
	Base   float64 `json:"base_ops_per_sec"`
	Cur    float64 `json:"cur_ops_per_sec"`
	Pct    float64 `json:"delta_pct"`
}

// Cell names the delta's cell for human output ("B3 \"row\" goroutines=8").
func (d CellDelta) Cell() string {
	return fmt.Sprintf("%s %q col=%d", d.Table, d.Row, d.Column)
}

// BenchDeltas computes the per-cell percent deltas of cur against
// base, matching cells by table ID, row name and column value — cells
// present on only one side, and zero-rate baseline cells (over-budget
// or not-attempted markers), are skipped and counted. table filters to
// one table ID ("" = all). Deltas are returned worst-first (most
// negative percent).
func BenchDeltas(base, cur *Bench, table string) (deltas []CellDelta, skipped int) {
	baseTables := make(map[string]BenchTable, len(base.Tables))
	for _, t := range base.Tables {
		baseTables[t.ID] = t
	}
	for _, ct := range cur.Tables {
		if table != "" && ct.ID != table {
			continue
		}
		bt, ok := baseTables[ct.ID]
		if !ok {
			skipped++
			continue
		}
		baseCols := make(map[int]int, len(bt.Columns))
		for i, c := range bt.Columns {
			baseCols[c] = i
		}
		baseRows := make(map[string][]float64, len(bt.Rows))
		for _, r := range bt.Rows {
			baseRows[r.Name] = r.OpsPerSec
		}
		for _, row := range ct.Rows {
			bvals, ok := baseRows[row.Name]
			if !ok {
				skipped++
				continue
			}
			for i, c := range ct.Columns {
				j, ok := baseCols[c]
				if !ok || j >= len(bvals) || i >= len(row.OpsPerSec) || bvals[j] <= 0 {
					skipped++
					continue
				}
				deltas = append(deltas, CellDelta{
					Table: ct.ID, Row: row.Name, Column: c,
					Base: bvals[j], Cur: row.OpsPerSec[i],
					Pct: (row.OpsPerSec[i] - bvals[j]) / bvals[j] * 100,
				})
			}
		}
	}
	sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].Pct < deltas[j].Pct })
	return deltas, skipped
}
