package history

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestParseFileDiagnostics(t *testing.T) {
	src := "inv t1 E.exchange 3\nres t1 E.exchange wibble\n"
	_, err := ParseFile("h.txt", src)
	if err == nil {
		t.Fatal("malformed value should fail")
	}
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("error should be a *SyntaxError, got %T: %v", err, err)
	}
	if se.File != "h.txt" || se.Line != 2 {
		t.Errorf("SyntaxError position = %s:%d, want h.txt:2", se.File, se.Line)
	}
	if !strings.HasPrefix(err.Error(), "h.txt:2: ") {
		t.Errorf("error should render file:line: prefix, got %q", err.Error())
	}
}

func TestParseRejectsSignedThreadIDs(t *testing.T) {
	for _, src := range []string{
		"inv t-1 E.exchange 3",
		"inv t+1 E.exchange 3",
		"inv t1x E.exchange 3",
		"inv t E.exchange 3",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// parseSeeds seed FuzzParseHistory and, with more edge cases,
// FuzzParseMatchesReference.
var parseSeeds = []string{
	"inv t1 E.exchange 3\nres t1 E.exchange (true,4)\n",
	"# comment\n\ninv t2 AR.E[3].exchange 5\n",
	"res t9 S.pop (false,0)",
	"inv t1 E.exchange",   // truncated line
	"inv t1 E.exchange (", // truncated value
	"zap\x00zap",
	strings.Repeat("inv t1 E.exchange 3\n", 100),
	// Regression seeds for the limit path: an event-count overflow whose
	// offending line follows comments and blanks (the reported line must
	// be the event's, not the comment's), and an over-byte-limit input.
	"# prelude\n\ninv t1 E.exchange 1\nres t1 E.exchange (true,2)\ninv t2 E.exchange 2\n",
	strings.Repeat("#", 4<<10),
}

// FuzzParseHistory asserts the parser's robustness contract: it never
// panics on arbitrary (including truncated) input, and any input it
// accepts round-trips through Format and back unchanged. The limited
// parser must uphold the same contract — every rejection a *SyntaxError,
// never a panic — under limits small enough that the seeds trip them.
func FuzzParseHistory(f *testing.F) {
	for _, src := range parseSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, lerr := ParseFileLimited("fuzz", src, Limits{MaxBytes: 256, MaxEvents: 2}); lerr != nil {
			var se *SyntaxError
			if !errors.As(lerr, &se) {
				t.Fatalf("ParseFileLimited error is %T, want *SyntaxError: %v", lerr, lerr)
			}
		}
		h, err := Parse(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Parse error is %T, want *SyntaxError: %v", err, err)
			}
			return
		}
		again, err := Parse(Format(h))
		if err != nil {
			t.Fatalf("re-parsing formatted history: %v", err)
		}
		if len(h) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(again, h) {
			t.Fatalf("round trip mismatch:\n got %v\nwant %v", again, h)
		}
	})
}
