package cliflags

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calgo"
)

// resetFlags gives each test a fresh default flag set and restores the
// real one (and flag.Usage) afterwards, since Register mutates both.
func resetFlags(t *testing.T) {
	t.Helper()
	oldCmd, oldUsage := flag.CommandLine, flag.Usage
	t.Cleanup(func() { flag.CommandLine, flag.Usage = oldCmd, oldUsage })
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	flag.Usage = nil
}

// capture redirects the given file (os.Stdout or os.Stderr) for the
// duration of fn and returns what was written.
func capture(t *testing.T, f **os.File, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := *f
	*f = w
	done := make(chan string)
	go func() {
		var b bytes.Buffer
		_, _ = b.ReadFrom(r)
		done <- b.String()
	}()
	fn()
	w.Close()
	*f = old
	return <-done
}

// TestRegisterDefinesSharedFlags pins the shared vocabulary: every tool
// built on cliflags must expose exactly these names.
func TestRegisterDefinesSharedFlags(t *testing.T) {
	resetFlags(t)
	Register("testtool")
	for _, name := range []string{
		"workers", "timeout", "metrics-json", "trace", "progress",
		"explain", "dot", "report",
	} {
		if flag.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

// TestUsageIncludesExitLegend pins the -h contract: the exit-code legend
// is appended to every tool's usage output.
func TestUsageIncludesExitLegend(t *testing.T) {
	resetFlags(t)
	Register("testtool")
	var buf bytes.Buffer
	flag.CommandLine.SetOutput(&buf)
	flag.Usage()
	out := buf.String()
	for _, want := range []string{"Exit status:", "0  OK", "1  VIOLATION", "3  UNKNOWN"} {
		if !strings.Contains(out, want) {
			t.Errorf("usage output missing %q:\n%s", want, out)
		}
	}
}

// TestRegisterStreamFlags pins the streaming flag surface: the two
// -stream-* flags register with documented defaults, and StreamOptions
// projects onto facade options that NewStream accepts.
func TestRegisterStreamFlags(t *testing.T) {
	resetFlags(t)
	s := Register("testtool")
	s.RegisterStream()
	for _, name := range []string{"stream-window", "stream-check-every"} {
		if flag.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if err := flag.CommandLine.Parse([]string{"-stream-window", "512"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := calgo.NewStream(calgo.NewQueueSpec("q"), s.StreamOptions()...)
	if err != nil {
		t.Fatalf("NewStream rejected StreamOptions(): %v", err)
	}
	st.Close()
}

// TestMetricsJSONStdout pins "-metrics-json -": counters recorded into
// the shared registry are aggregated into one document on stdout.
func TestMetricsJSONStdout(t *testing.T) {
	resetFlags(t)
	s := Register("testtool")
	if err := flag.CommandLine.Parse([]string{"-metrics-json", "-"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Two recordings into the same counter must aggregate, as the fuzz
	// batches do.
	s.Metrics().Counter("test.checks").Add(2)
	s.Metrics().Counter("test.checks").Add(3)
	out := capture(t, &os.Stdout, func() {
		if err := s.Finish(0); err != nil {
			t.Fatal(err)
		}
	})
	var doc Report
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, out)
	}
	if doc.Tool != "testtool" {
		t.Errorf("tool = %q", doc.Tool)
	}
	if got := doc.Metrics.Counters["test.checks"]; got != 5 {
		t.Errorf("test.checks = %d, want 5 (aggregated)", got)
	}
	if doc.Metrics.Schema != calgo.MetricsSchemaVersion {
		t.Errorf("schema = %q", doc.Metrics.Schema)
	}
}

// TestReportJSONAndMarkdown: -report writes a calgo.report/v1 document
// with the accumulated runs and the caller's exit code; a .md path
// renders Markdown instead.
func TestReportJSONAndMarkdown(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "run.json")
	mdPath := filepath.Join(dir, "run.md")

	for _, path := range []string{jsonPath, mdPath} {
		resetFlags(t)
		s := Register("testtool")
		if err := flag.CommandLine.Parse([]string{"-report", path}); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		if s.Metrics() == nil {
			t.Fatal("-report did not imply a metrics registry")
		}
		s.AddRun(calgo.RunReport{Name: "case-1", Verdict: "VIOLATION", Detail: "it broke"})
		s.AddNote("note %d", 7)
		if err := s.Finish(1); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}

	var doc calgo.Report
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != calgo.ReportSchemaVersion || doc.Exit != 1 || doc.Tool != "testtool" {
		t.Errorf("report header = %+v", doc)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Verdict != "VIOLATION" {
		t.Errorf("runs = %+v", doc.Runs)
	}
	if len(doc.Notes) != 1 || doc.Notes[0] != "note 7" {
		t.Errorf("notes = %+v", doc.Notes)
	}
	if doc.Metrics == nil {
		t.Error("report missing metrics snapshot")
	}

	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# testtool run report", "VIOLATION", "it broke", "note 7"} {
		if !strings.Contains(string(md), want) {
			t.Errorf("markdown report missing %q", want)
		}
	}
}

// TestRegisterDefinesOpsFlags: Register and RegisterOps both expose the
// ops-endpoint and logging vocabulary.
func TestRegisterDefinesOpsFlags(t *testing.T) {
	for _, reg := range []struct {
		name string
		fn   func(string) *Set
	}{{"Register", Register}, {"RegisterOps", RegisterOps}} {
		resetFlags(t)
		reg.fn("testtool")
		for _, name := range []string{"serve", "serve-linger", "log-level", "log-format"} {
			if flag.Lookup(name) == nil {
				t.Errorf("%s: flag -%s not registered", reg.name, name)
			}
		}
	}
	// RegisterOps leaves the run flags out but its accessors still answer
	// with defaults.
	resetFlags(t)
	s := RegisterOps("testtool")
	if flag.Lookup("workers") != nil {
		t.Error("RegisterOps registered -workers")
	}
	if s.Workers() != 0 || s.Timeout() != 0 || s.ReportPath() != "" || s.Explain() {
		t.Error("RegisterOps accessors are not at their defaults")
	}
}

// TestLoggerFlagValidation: bad -log-level/-log-format are usage errors
// from Start, and the chosen format shapes the output.
func TestLoggerFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-log-level", "loud"},
		{"-log-format", "xml"},
	} {
		resetFlags(t)
		s := Register("testtool")
		if err := flag.CommandLine.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err == nil {
			t.Errorf("Start accepted %v", args)
		}
	}

	resetFlags(t)
	s := Register("testtool")
	if err := flag.CommandLine.Parse([]string{"-log-format", "json", "-log-level", "warn"}); err != nil {
		t.Fatal(err)
	}
	errOut := capture(t, &os.Stderr, func() {
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.Logger().Info("too quiet")
		s.Logger().Warn("hear me", "k", 1)
	})
	if strings.Contains(errOut, "too quiet") {
		t.Errorf("-log-level warn let an info line through:\n%s", errOut)
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(errOut)), &line); err != nil {
		t.Fatalf("-log-format json produced non-JSON %q: %v", errOut, err)
	}
	if line["msg"] != "hear me" || line["tool"] != "testtool" {
		t.Errorf("log line = %v", line)
	}
}

// TestServeEndToEnd: -serve brings up the ops endpoint with metrics,
// live status, flight ring and, after Finish, the completed report on
// /runsz.
func TestServeEndToEnd(t *testing.T) {
	resetFlags(t)
	s := Register("testtool")
	if err := flag.CommandLine.Parse([]string{"-serve", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	errOut := capture(t, &os.Stderr, func() {
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	})
	defer s.Close()
	if !strings.Contains(errOut, "ops server listening") {
		t.Errorf("Start did not announce the ops server:\n%s", errOut)
	}
	if s.Metrics() == nil || s.Live() == nil || s.Ops() == nil {
		t.Fatal("-serve did not imply metrics + live + ops server")
	}
	if !s.WantsRuns() {
		t.Error("WantsRuns() = false with a live -serve endpoint")
	}

	s.Metrics().Counter("test.hits").Add(9)
	s.AddRun(calgo.RunReport{Name: "case-1", Verdict: "OK"})
	s.AddNote("served %s", "note")

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + s.Ops().Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, "calgo_test_hits_total 9") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	var st calgo.Statusz
	if err := json.Unmarshal([]byte(get("/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Tool != "testtool" || len(st.Runs) != 1 || st.Runs[0].Name != "case-1" {
		t.Errorf("statusz = %+v", st)
	}
	if len(st.Notes) != 1 || st.Notes[0] != "served note" {
		t.Errorf("statusz notes = %v", st.Notes)
	}

	// Options must carry the live view into the engines.
	var hasLive bool
	for _, o := range s.Options() {
		if strings.Contains(o.String(), "WithLive") {
			hasLive = true
		}
	}
	if !hasLive {
		t.Error("Options() does not include WithLive under -serve")
	}

	if err := s.Finish(0); err != nil {
		t.Fatal(err)
	}
	var records []calgo.RunRecord
	if err := json.Unmarshal([]byte(get("/runsz")), &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Report == nil ||
		records[0].Report.Exit != 0 || len(records[0].Report.Runs) != 1 {
		t.Errorf("/runsz = %+v", records)
	}
	if err := json.Unmarshal([]byte(get("/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Run.Phase != "done" {
		t.Errorf("post-Finish phase = %q, want done", st.Run.Phase)
	}
	s.Close()
	if s.Ops() != nil {
		t.Error("Close did not clear the ops server")
	}
}

// TestDumpFlightIncludesSchedule: a violation schedule passed to
// DumpFlight is appended to the stderr dump.
func TestDumpFlightIncludesSchedule(t *testing.T) {
	resetFlags(t)
	s := Register("testtool")
	if err := flag.CommandLine.Parse([]string{"-report", filepath.Join(t.TempDir(), "r.json")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.flight.SearchStart(1)
	errOut := capture(t, &os.Stderr, func() {
		s.DumpFlight(calgo.ExploreStep{Thread: 2, Label: "XCHG"})
	})
	if !strings.Contains(errOut, "schedule to the violating state") || !strings.Contains(errOut, "t2:XCHG") {
		t.Errorf("flight dump missing schedule:\n%s", errOut)
	}
}

// TestWriteDOTOffIsNoop: without -dot, WriteDOT must do nothing.
func TestWriteDOTOffIsNoop(t *testing.T) {
	resetFlags(t)
	s := Register("testtool")
	if err := flag.CommandLine.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteDOT("digraph g {}"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.dot")
	resetFlags(t)
	s = Register("testtool")
	if err := flag.CommandLine.Parse([]string{"-dot", path}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteDOT("digraph g {}"); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "digraph g {}" {
		t.Errorf("WriteDOT wrote %q, %v", b, err)
	}
}
