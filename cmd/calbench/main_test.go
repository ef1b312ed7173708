package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"calgo"
)

func TestGCounts(t *testing.T) {
	old := *maxG
	defer func() { *maxG = old }()
	*maxG = 32
	got := gCounts()
	want := []int{1, 2, 4, 8, 16, 32}
	if len(got) != len(want) {
		t.Fatalf("gCounts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("gCounts = %v, want %v", got, want)
		}
	}
}

func TestSweepCountsSuccesses(t *testing.T) {
	old := *duration
	defer func() { *duration = old }()
	*duration = 10 * time.Millisecond
	// Alternate success/failure per call: roughly half the rate.
	var parity [64]bool
	all := sweep([]int{1, 2}, func(tid calgo.ThreadID) bool {
		parity[tid] = !parity[tid]
		return parity[tid]
	})
	if len(all) != 2 {
		t.Fatalf("sweep returned %d cells", len(all))
	}
	for i, v := range all {
		if v <= 0 {
			t.Errorf("cell %d = %f, want positive rate", i, v)
		}
	}
}

func TestRunUnknownTable(t *testing.T) {
	oldTable := *table
	defer func() { *table = oldTable }()
	*table = "bogus"
	if err := runTables(); err == nil {
		t.Error("unknown table should error")
	}
}

// TestJSONReport pins the -json schema: table IDs, column labels and one
// rate per column, round-tripping through the encoder.
func TestJSONReport(t *testing.T) {
	oldReport := report
	defer func() { report = oldReport }()
	report = jsonReport{}
	recordTable("B1: stack throughput", "goroutines", []int{1, 2},
		map[string][]float64{"treiber (lock-free)": {100, 200}},
		[]string{"treiber (lock-free)"})
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := writeJSON(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got jsonReport
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("wrote invalid JSON: %v", err)
	}
	if len(got.Tables) != 1 || got.Tables[0].ID != "B1" || got.Tables[0].ColumnLabel != "goroutines" {
		t.Errorf("tables = %+v", got.Tables)
	}
	if got.GOMAXPROCS < 1 || got.Generated == "" || got.Window == "" {
		t.Errorf("metadata missing: %+v", got)
	}
	row := got.Tables[0].Rows[0]
	if row.Name != "treiber (lock-free)" || len(row.OpsPerSec) != 2 || row.OpsPerSec[1] != 200 {
		t.Errorf("row = %+v", row)
	}
}

func TestBenchTablesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping wall-clock sweeps in -short mode")
	}
	oldDur, oldMax := *duration, *maxG
	defer func() { *duration, *maxG = oldDur, oldMax }()
	*duration = 5 * time.Millisecond
	*maxG = 2
	benchStacks()
	benchExchangers()
	benchSyncQueue()
	benchQueues()
	benchElimK()
}

// TestCompareBaselineWorstCell pins what -gate reads: the worst cell is
// named by table, row and column value, and cells only one side has, or
// with a zero baseline rate, are not compared.
func TestCompareBaselineWorstCell(t *testing.T) {
	base := &jsonReport{Tables: []jsonTable{{
		ID: "B7", ColumnLabel: "goroutines", Columns: []int{1, 2, 4},
		Rows: []jsonRow{{Name: "michael-scott", OpsPerSec: []float64{100, 200, 0}}},
	}}}
	cur := []jsonTable{
		{ID: "B7", Title: "B7: queues", ColumnLabel: "goroutines", Columns: []int{2, 4, 8},
			Rows: []jsonRow{
				{Name: "michael-scott", OpsPerSec: []float64{100, 50, 10}},
				{Name: "new row", OpsPerSec: []float64{1, 1, 1}},
			}},
		{ID: "B9", Title: "B9: not in baseline", ColumnLabel: "K", Columns: []int{1},
			Rows: []jsonRow{{Name: "x", OpsPerSec: []float64{1}}}},
	}
	worst := compareBaseline("test", base, cur)
	if worst.pct != 50 || worst.cell != `B7 "michael-scott" goroutines=2` {
		t.Errorf("worst = %+v, want 50%% at B7 \"michael-scott\" goroutines=2", worst)
	}
}
