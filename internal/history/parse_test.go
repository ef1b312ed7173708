package history

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestFormatParse(t *testing.T) {
	for _, h := range []History{fig3H1(), fig3H2(), fig3H3(), {}} {
		src := Format(h)
		got, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(Format(h)): %v", err)
		}
		if len(h) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, h) {
			t.Errorf("round trip mismatch:\n got %v\nwant %v", got, h)
		}
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	src := `
# history H2 of Figure 3
inv t1 E.exchange 3
inv t2 E.exchange 4

res t1 E.exchange (true,4)
res t2 E.exchange (true,3)
# trailing comment
`
	h, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(h) != 4 || !h.IsComplete() {
		t.Errorf("parsed %d events, want 4 complete: %v", len(h), h)
	}
}

func TestParseDottedObjectNames(t *testing.T) {
	// Nested object ids like AR.E[3] are kept intact; the method is the
	// segment after the last dot.
	h, err := Parse("inv t1 AR.E[3].exchange 5")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if h[0].Object != "AR.E[3]" || h[0].Method != "exchange" {
		t.Errorf("got object %q method %q", h[0].Object, h[0].Method)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"inv t1 E.exchange",              // missing value
		"zap t1 E.exchange 3",            // bad kind
		"inv x1 E.exchange 3",            // bad thread
		"inv tX E.exchange 3",            // bad thread number
		"inv t1 Eexchange 3",             // no dot
		"inv t1 .exchange 3",             // empty object
		"inv t1 E. 3",                    // empty method
		"inv t1 E.exchange (wibble)",     // bad value
		"inv t1 E.exchange 3 extra junk", // too many fields
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("Parse(%q) error should cite line 1: %v", src, err)
		}
	}
}

// TestParseAllocatesOnce pins the scanner's one allocation, the result:
// lines and fields are substrings of the source.
func TestParseAllocatesOnce(t *testing.T) {
	src := Format(exchangeHistory(10_000, 4))
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("parsing a 10k-event history made %v allocations, want at most 1", allocs)
	}
}

// TestParseBlankFloodBounded: the result is sized by the lines that can
// hold events, so a flood of blank or comment lines costs no memory of
// its own.
func TestParseBlankFloodBounded(t *testing.T) {
	const event = "inv t1 E.exchange 3\n"
	for _, flood := range []string{"\n", "\r\n", "  # comment\n"} {
		src := strings.Repeat(flood, (1<<20)/len(flood)) + event
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, err := Parse(src)
		runtime.ReadMemStats(&after)
		if err != nil || len(h) != 1 {
			t.Fatalf("flood of %q: got %d events, error %v; want 1 event", flood, len(h), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("flood of %q: parsing allocated %d bytes, want at most 64 KiB", flood, got)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for _, events := range []int{1_000, 100_000} {
		src := Format(exchangeHistory(events, 4))
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if _, err := Parse(src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}
