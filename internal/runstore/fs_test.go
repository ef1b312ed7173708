package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"calgo/internal/obs"
)

func openTestFS(t *testing.T, dir string, opts FSOptions) *FS {
	t.Helper()
	s, err := OpenFS(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFSPutGetListReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestFS(t, dir, FSOptions{})
	base := time.Unix(2000, 0)
	for i := 0; i < 10; i++ {
		verdict := "OK"
		if i == 7 {
			verdict = "VIOLATION"
		}
		rec := reportRecord("cald", verdict, base.Add(time.Duration(i)*time.Second))
		rec.Labels = map[string]string{"spec": "register"}
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Record{}); err != ErrClosed {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}

	// Reopen: everything survives, filters work over the disk metadata.
	s2 := openTestFS(t, dir, FSOptions{})
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("reopened Len = %d", s2.Len())
	}
	recs, err := s2.List(Filter{Verdict: "VIOLATION"})
	if err != nil || len(recs) != 1 {
		t.Fatalf("List(VIOLATION) = %v (err %v)", recs, err)
	}
	if recs[0].Report == nil || recs[0].Report.Runs[0].Verdict != "VIOLATION" {
		t.Fatalf("materialized record = %+v", recs[0])
	}
	if recs[0].Labels["spec"] != "register" {
		t.Fatalf("labels = %v", recs[0].Labels)
	}
	// ID sequence continues past the replayed records.
	rec := reportRecord("cald", "OK", base.Add(time.Hour))
	if err := s2.Put(rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != "r-11" {
		t.Fatalf("next ID = %q, want r-11", rec.ID)
	}
}

// TestFSRejectsURL pins that a daemon URL given where a store
// directory is expected fails with an error instead of creating a
// local directory named "http:" and answering from an empty store.
func TestFSRejectsURL(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck // best effort: the test is over
	for _, spec := range []string{"http://a:8419", "https://b:8419/runs"} {
		s, err := OpenFS(spec, FSOptions{})
		if err == nil {
			s.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "local directory") {
			t.Errorf("OpenFS(%q) = %v, want a local-directory error", spec, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("OpenFS of a URL created %v", entries)
	}
}

// TestFSTornTail kills a store mid-append (simulated by truncating the
// last line in half) and proves reopen skips the torn line, keeps every
// acknowledged record before it, and cuts the torn bytes so the next
// put survives another reopen instead of fusing with them.
func TestFSTornTail(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics()
	s := openTestFS(t, dir, FSOptions{})
	for i := 0; i < 5; i++ {
		if err := s.Put(reportRecord("calcheck", "OK", time.Unix(int64(3000+i), 0))); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close.
	seg := filepath.Join(dir, "run-000001.jsonl")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final record in half, as a crash mid-write would.
	lines := strings.SplitAfter(strings.TrimSuffix(string(b), "\n"), "\n")
	last := lines[len(lines)-1]
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(seg, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestFS(t, dir, FSOptions{Metrics: m})
	if s2.Len() != 4 {
		t.Fatalf("Len after torn tail = %d, want 4", s2.Len())
	}
	if got := m.Counter("runstore.corrupt_skipped").Value(); got != 1 {
		t.Fatalf("corrupt_skipped = %d, want 1", got)
	}
	// The survivors are intact and the torn ID is re-assignable: the
	// next put must not collide with a live record.
	for i := 1; i <= 4; i++ {
		if _, ok, err := s2.Get(fmt.Sprintf("r-%d", i)); err != nil || !ok {
			t.Fatalf("r-%d lost (err %v)", i, err)
		}
	}
	rec := reportRecord("calcheck", "OK", time.Unix(4000, 0))
	if err := s2.Put(rec); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Get(rec.ID); !ok {
		t.Fatalf("put after torn-tail reopen lost %q", rec.ID)
	}
	// The put must also survive a replay of the segment itself, with no
	// index sidecar to cover its offset.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, "index.json"))
	s3 := openTestFS(t, dir, FSOptions{})
	defer s3.Close()
	if _, ok, _ := s3.Get(rec.ID); !ok || s3.Len() != 5 {
		t.Fatalf("after reopen: %q present %v, Len %d; want present, Len 5", rec.ID, ok, s3.Len())
	}
}

// TestFSCorruptInteriorLine damages a middle line: replay must skip
// exactly that record and keep the rest.
func TestFSCorruptInteriorLine(t *testing.T) {
	dir := t.TempDir()
	s := openTestFS(t, dir, FSOptions{})
	for i := 0; i < 5; i++ {
		if err := s.Put(reportRecord("calcheck", "OK", time.Unix(int64(3000+i), 0))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "run-000001.jsonl")
	b, _ := os.ReadFile(seg)
	lines := strings.SplitAfter(string(b), "\n")
	lines[2] = strings.Replace(lines[2], `"schema"`, `xxchemaxx`, 1) // break JSON
	os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644)

	m := obs.NewMetrics()
	s2 := openTestFS(t, dir, FSOptions{Metrics: m})
	defer s2.Close()
	if s2.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s2.Len())
	}
	if _, ok, _ := s2.Get("r-3"); ok {
		t.Fatal("damaged record r-3 should be gone")
	}
	if got := m.Counter("runstore.corrupt_skipped").Value(); got != 1 {
		t.Fatalf("corrupt_skipped = %d", got)
	}
}

// TestFSShrunkSegment drops a whole record line from a closed segment:
// replay must keep exactly the records still on disk.
func TestFSShrunkSegment(t *testing.T) {
	dir := t.TempDir()
	s := openTestFS(t, dir, FSOptions{})
	for i := 0; i < 4; i++ {
		if err := s.Put(reportRecord("calfuzz", "OK", time.Unix(int64(5000+i), 0))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "run-000001.jsonl")
	b, _ := os.ReadFile(seg)
	lines := strings.SplitAfter(string(b), "\n")
	os.WriteFile(seg, []byte(strings.Join(lines[:3], "")), 0o644) // drop the last record

	s2 := openTestFS(t, dir, FSOptions{})
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s2.Len())
	}
}

// TestFSPutsSurviveAbandon reopens a store, puts more records and
// abandons it without Close (as a crash leaves things), and proves a
// third open finds every record.
func TestFSPutsSurviveAbandon(t *testing.T) {
	dir := t.TempDir()
	s := openTestFS(t, dir, FSOptions{})
	if err := s.Put(reportRecord("cald", "OK", time.Unix(6000, 0))); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTestFS(t, dir, FSOptions{})
	for i := 0; i < 3; i++ {
		if err := s2.Put(reportRecord("cald", "OK", time.Unix(int64(6001+i), 0))); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close.
	s3 := openTestFS(t, dir, FSOptions{})
	defer s3.Close()
	if s3.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s3.Len())
	}
}

// TestFSRotationAndCompaction supersedes most records and proves
// open-time compaction rewrites the store without losing the live set.
func TestFSRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics()
	s := openTestFS(t, dir, FSOptions{Metrics: m})
	// 12 distinct records.
	for i := 0; i < 12; i++ {
		if err := s.Put(reportRecord("calbench", "OK", time.Unix(int64(7000+i), 0))); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede 10 of them twice over: 20 garbage occurrences.
	for pass := 0; pass < 2; pass++ {
		for i := 1; i <= 10; i++ {
			rec := reportRecord("calbench", "OK", time.Unix(int64(7100+10*pass+i), 0))
			rec.ID = fmt.Sprintf("r-%d", i)
			if err := s.Put(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	segs, _ := s.segments()
	s.Close()

	s2 := openTestFS(t, dir, FSOptions{Metrics: m})
	defer s2.Close()
	if got := m.Counter("runstore.compactions").Value(); got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
	if s2.Len() != 12 {
		t.Fatalf("Len after compaction = %d, want 12", s2.Len())
	}
	// Compaction kept the newest copy of each superseded record.
	rec, ok, err := s2.Get("r-1")
	if err != nil || !ok {
		t.Fatalf("r-1 missing after compaction (err %v)", err)
	}
	if rec.TimeNS != time.Unix(7111, 0).UnixNano() {
		t.Fatalf("r-1 time = %d, want the newest copy", rec.TimeNS)
	}
	// Old segments are gone; only the compacted one remains.
	segs2, _ := s2.segments()
	for _, n := range segs2 {
		for _, old := range segs {
			if n == old {
				t.Fatalf("old segment %d survived compaction (have %v)", n, segs2)
			}
		}
	}
}

// TestFSCompactionCrashDuplicates simulates a crash after the
// compacted segment landed but before the old segments were removed:
// newest-occurrence-wins replay must keep exactly the live set.
func TestFSCompactionCrashDuplicates(t *testing.T) {
	dir := t.TempDir()
	s := openTestFS(t, dir, FSOptions{})
	for i := 0; i < 3; i++ {
		if err := s.Put(reportRecord("cald", "OK", time.Unix(int64(8000+i), 0))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Duplicate the whole segment as a higher-numbered one — exactly
	// what an interrupted compaction leaves behind.
	b, _ := os.ReadFile(filepath.Join(dir, "run-000001.jsonl"))
	os.WriteFile(filepath.Join(dir, "run-000002.jsonl"), b, 0o644)

	s2 := openTestFS(t, dir, FSOptions{})
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("Len with duplicate segment = %d, want 3", s2.Len())
	}
	recs, err := s2.List(Filter{})
	if err != nil || len(recs) != 3 {
		t.Fatalf("List = %v (err %v)", recs, err)
	}
}

// TestFSOpensRotatedLayout opens a directory in the layout of a store
// that rotated segments and kept an index sidecar: three segments, a
// superseding copy and a tombstone in later ones, and an index.json
// that still lists the tombstoned record. Open must fold the segments
// into the live set with the newest copies, and leave one segment and
// no sidecar.
func TestFSOpensRotatedLayout(t *testing.T) {
	dir := t.TempDir()
	line := func(id string, sec int64, deleted bool) string {
		rec := &Record{Schema: RecordSchema, ID: id, Deleted: deleted}
		if !deleted {
			rec = reportRecord("cald", "OK", time.Unix(sec, 0))
			rec.ID = id
			rec.normalize(time.Now)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	files := map[string]string{
		"run-000001.jsonl": line("r-1", 100, false) + line("r-2", 101, false) + line("r-3", 102, false),
		"run-000002.jsonl": line("r-4", 103, false) + line("r-2", 200, false) + line("r-5", 104, false),
		"run-000003.jsonl": line("r-3", 0, true) + line("r-6", 105, false),
		"index.json": `{"schema":"calgo.runstore-index/v1","segments":[{"name":"run-000001.jsonl",` +
			`"size":1,"entries":[{"id":"r-3","seg":1,"off":0,"len":1,"time_unix_ns":0}]}]}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := openTestFS(t, dir, FSOptions{})
	defer s.Close()
	recs, err := s.List(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, rec := range recs {
		ids = append(ids, rec.ID)
	}
	if got := strings.Join(ids, " "); got != "r-1 r-4 r-5 r-6 r-2" {
		t.Fatalf("live set by time = %q, want r-1 r-4 r-5 r-6 r-2", got)
	}
	if rec, ok, _ := s.Get("r-2"); !ok || rec.TimeNS != time.Unix(200, 0).UnixNano() || rec.Report == nil {
		t.Fatalf("r-2 = %+v (ok %v), want the newest copy with its report", rec, ok)
	}
	if _, ok, _ := s.Get("r-3"); ok {
		t.Fatal("tombstoned r-3 resurrected")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || !strings.HasPrefix(names[0], "run-") {
		t.Fatalf("directory after open = %v, want one segment and no index.json", names)
	}
}

func TestFSBenchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestFS(t, dir, FSOptions{})
	doc := &Bench{
		GOMAXPROCS: 8, Window: "500ms", Generated: "2026-08-08T10:00:00Z",
		Tables: []BenchTable{{
			ID: "B1", Title: "t", ColumnLabel: "goroutines", Columns: []int{1, 4},
			Rows: []BenchRow{{Name: "treiber", OpsPerSec: []float64{100, 400}}},
		}},
	}
	if err := s.Put(BenchRecord("bench-x", doc)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTestFS(t, dir, FSOptions{})
	defer s2.Close()
	rec, ok, err := s2.Get("bench-x")
	if err != nil || !ok || rec.Kind != KindBench || rec.Bench == nil {
		t.Fatalf("bench record = %+v (ok %v err %v)", rec, ok, err)
	}
	if rec.TimeNS != doc.GeneratedTime().UnixNano() {
		t.Fatalf("bench time = %d", rec.TimeNS)
	}
	if !jsonEqual(t, rec.Bench, doc) {
		t.Fatalf("bench doc mutated: %+v vs %+v", rec.Bench, doc)
	}
}

func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ab) == string(bb)
}

func TestFSIngestBenchDirIdempotent(t *testing.T) {
	dir := t.TempDir()
	doc := `{"gomaxprocs":4,"window":"60ms","generated":"2026-08-06T09:00:00Z",` +
		`"tables":[{"id":"B1","title":"x","column_label":"goroutines","columns":[1],` +
		`"rows":[{"name":"a","ops_per_sec":[10]}]}]}`
	os.WriteFile(filepath.Join(dir, "BENCH_2026-08-06.json"), []byte(doc), 0o644)
	os.WriteFile(filepath.Join(dir, "BENCH_bogus.json"), []byte("{not json"), 0o644)
	os.WriteFile(filepath.Join(dir, "unrelated.json"), []byte("{}"), 0o644)

	s := openTestFS(t, filepath.Join(dir, "store"), FSOptions{})
	defer s.Close()
	n, err := IngestBenchDir(s, dir, nil)
	if err != nil || n != 1 {
		t.Fatalf("ingested %d (err %v), want 1", n, err)
	}
	if _, ok, _ := s.Get("bench-BENCH_2026-08-06"); !ok {
		t.Fatal("deterministic ingest ID missing")
	}
	// Second pass is a no-op.
	n, err = IngestBenchDir(s, dir, nil)
	if err != nil || n != 0 {
		t.Fatalf("re-ingested %d (err %v), want 0", n, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestFSConcurrent exercises the store under -race: concurrent puts,
// lists and gets against one FS instance.
func TestFSConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openTestFS(t, dir, FSOptions{Metrics: obs.NewMetrics()})
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				rec := reportRecord("cald", "OK", time.Unix(int64(9000+g*25+i), 0))
				if err := s.Put(rec); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Get(rec.ID); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.List(Filter{Tool: "cald", Limit: 3}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	// And the whole thing replays.
	s.Close()
	s2 := openTestFS(t, dir, FSOptions{})
	defer s2.Close()
	if s2.Len() != 100 {
		t.Fatalf("replayed Len = %d, want 100", s2.Len())
	}
}
