package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// resetFlagsForTest lets run() re-parse a fresh flag set per subtest.
func resetFlagsForTest(t *testing.T, args []string) {
	t.Helper()
	oldArgs := os.Args
	oldCmd := flag.CommandLine
	flag.CommandLine = flag.NewFlagSet("calcheck", flag.ExitOnError)
	os.Args = append([]string{"calcheck"}, args...)
	t.Cleanup(func() {
		os.Args = oldArgs
		flag.CommandLine = oldCmd
	})
}

func TestPropertyName(t *testing.T) {
	tests := map[string]string{
		"cal":    "CA-linearizable",
		"lin":    "linearizable",
		"setlin": "set-linearizable",
	}
	for mode, want := range tests {
		if got := propertyName(mode); got != want {
			t.Errorf("propertyName(%q) = %q, want %q", mode, got, want)
		}
	}
}

func TestReadInputs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "h.txt")
	const content = "inv t1 E.exchange 3\n"
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := readInputs([]string{path, path})
	if err != nil || len(got) != 2 || got[0].src != content || got[0].name != path {
		t.Errorf("readInputs = %v, %v", got, err)
	}
	if _, err := readInputs([]string{path, filepath.Join(dir, "missing.txt")}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestWorstExit(t *testing.T) {
	tests := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 3, 3}, {3, 0, 3}, {0, 1, 1}, {3, 1, 1}, {1, 3, 1}, {1, 0, 1},
	}
	for _, tt := range tests {
		if got := worstExit(tt.a, tt.b); got != tt.want {
			t.Errorf("worstExit(%d, %d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

// TestSampleHistories pins the verdicts promised by the files in
// examples/histories.
func TestSampleHistories(t *testing.T) {
	base := "../../examples/histories/"
	tests := []struct {
		file, spec, object, mode string
		want                     int
	}{
		{"fig3-h1.txt", "exchanger", "E", "cal", 0},
		{"fig3-h1.txt", "exchanger", "E", "lin", 1},
		{"fig3-h3.txt", "exchanger", "E", "cal", 1},
		{"fig3-h3.txt", "exchanger", "E", "lin", 1},
		{"stack-lifo.txt", "stack", "S", "cal", 0},
		{"stack-violation.txt", "stack", "S", "cal", 1},
		{"syncqueue-handoff.txt", "syncqueue", "SQ", "cal", 0},
		{"syncqueue-handoff.txt", "syncqueue", "SQ", "lin", 1},
	}
	for _, tt := range tests {
		t.Run(tt.file+"/"+tt.mode, func(t *testing.T) {
			resetFlagsForTest(t, []string{"-spec", tt.spec, "-object", tt.object, "-mode", tt.mode, base + tt.file})
			if got := run(); got != tt.want {
				t.Errorf("run() = %d, want %d", got, tt.want)
			}
		})
	}
}

// TestRunEndToEnd drives the full command (including exit codes) on
// temporary history files.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		return p
	}
	swap := write("swap.txt", strings.Join([]string{
		"inv t1 E.exchange 3",
		"inv t2 E.exchange 4",
		"res t1 E.exchange (true,4)",
		"res t2 E.exchange (true,3)",
	}, "\n"))
	loneSuccess := write("lone.txt", strings.Join([]string{
		"inv t1 E.exchange 3",
		"res t1 E.exchange (true,4)",
	}, "\n"))
	garbage := write("garbage.txt", "zap zap zap")
	// Two updates that both see both values: one CA-element of two, which
	// a snapshot spec with the job API's default of 4 participants admits.
	snapshot := write("snapshot.txt", strings.Join([]string{
		"inv t1 I.update 1",
		"inv t2 I.update 2",
		"res t1 I.update (true,2)",
		"res t2 I.update (true,2)",
	}, "\n"))
	// One thread's chain of 4,096 failing exchanges, the last one claiming
	// a partner it never had: every node is memoized on the way back, and
	// each entry is charged for its own key, so 100 bytes per operation
	// of memo budget suffice to prove the violation.
	var chain []string
	for i := 0; i < 4096; i++ {
		ret := fmt.Sprintf("(false,%d)", i)
		if i == 4095 {
			ret = "(true,99)"
		}
		chain = append(chain, fmt.Sprintf("inv t1 E.exchange %d", i), "res t1 E.exchange "+ret)
	}
	exchangeChain := write("chain.txt", strings.Join(chain, "\n"))

	tests := []struct {
		name string
		args []string
		want int
	}{
		{"swap is CAL", []string{"-spec", "exchanger", "-mode", "cal", "-v", swap}, 0},
		{"swap is not lin", []string{"-spec", "exchanger", "-mode", "lin", swap}, 1},
		{"swap is setlin", []string{"-spec", "exchanger", "-mode", "setlin", swap}, 0},
		{"lone success rejected", []string{"-spec", "exchanger", "-mode", "cal", "-v", loneSuccess}, 1},
		{"bad mode", []string{"-mode", "frob", swap}, 2},
		{"bad spec", []string{"-spec", "frob", swap}, 2},
		{"bad file", []string{"-spec", "exchanger", filepath.Join(dir, "nope.txt")}, 2},
		{"garbage input", []string{"-spec", "exchanger", garbage}, 2},
		{"batch all ok", []string{"-spec", "exchanger", "-workers", "2", swap, swap, swap}, 0},
		{"batch violation dominates", []string{"-spec", "exchanger", "-workers", "2", swap, loneSuccess, swap}, 1},
		{"snapshot threads 4", []string{"-spec", "snapshot", "-object", "I", "-threads", "4", snapshot}, 0},
		{"snapshot threads 0 as remote", []string{"-spec", "snapshot", "-object", "I", "-threads", "0", snapshot}, 0},
		{"memo budget fits a long chain", []string{"-spec", "exchanger", "-object", "E", "-engine", "dfs", "-memo-budget", "409600", exchangeChain}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resetFlagsForTest(t, tt.args)
			if got := run(); got != tt.want {
				t.Errorf("run() = %d, want %d", got, tt.want)
			}
		})
	}
}

// TestUnknownExitCode pins the resilience contract: on the adversarial
// history (exponential subset enumeration at one node) a 100ms deadline
// must yield the three-valued UNKNOWN verdict and exit code 3, promptly.
func TestUnknownExitCode(t *testing.T) {
	adversarial := "../../examples/histories/snapshot-adversarial.txt"
	resetFlagsForTest(t, []string{
		"-spec", "snapshot", "-object", "IS", "-threads", "23",
		"-timeout", "100ms", "-v", adversarial,
	})
	start := time.Now()
	if got := run(); got != 3 {
		t.Errorf("run() = %d, want 3 (UNKNOWN)", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("took %v to honour a 100ms deadline", elapsed)
	}
	// Without a deadline but with a tiny state budget the same verdict
	// path triggers via ErrBound on a decidable history.
	resetFlagsForTest(t, []string{
		"-spec", "exchanger", "-object", "E", "-max-states", "1",
		"../../examples/histories/fig3-h1.txt",
	})
	if got := run(); got != 3 {
		t.Errorf("run() with -max-states 1 = %d, want 3", got)
	}
	// A memo budget of one byte trips on the first memoized failure.
	resetFlagsForTest(t, []string{
		"-spec", "exchanger", "-object", "E", "-mode", "lin", "-memo-budget", "1",
		"../../examples/histories/fig3-h1.txt",
	})
	if got := run(); got != 3 {
		t.Errorf("run() with -memo-budget 1 = %d, want 3", got)
	}
}
