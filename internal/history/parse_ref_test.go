package history

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// refParseFileLimited is the Split/Fields parser that the one-pass
// scanner replaced, kept verbatim (only renamed) as the reference the
// scanner must match on every input: the same events, or the same
// *SyntaxError.
func refParseFileLimited(name, src string, lim Limits) (History, error) {
	if lim.MaxBytes > 0 && len(src) > lim.MaxBytes {
		return nil, &SyntaxError{File: name, Line: 1,
			Msg: fmt.Sprintf("input is %d bytes, limit is %d", len(src), lim.MaxBytes)}
	}
	var h History
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if lim.MaxEvents > 0 && len(h) >= lim.MaxEvents {
			return nil, &SyntaxError{File: name, Line: ln + 1,
				Msg: fmt.Sprintf("history exceeds %d events", lim.MaxEvents)}
		}
		e, err := refParseLine(line)
		if err != nil {
			return nil, &SyntaxError{File: name, Line: ln + 1, Msg: err.Error()}
		}
		h = append(h, e)
	}
	return h, nil
}

func refParseLine(line string) (Event, error) {
	fields := strings.Fields(line)
	if len(fields) != 4 {
		return Event{}, fmt.Errorf("want 4 fields %q, got %d", "kind thread obj.method value", len(fields))
	}
	var kind EventKind
	switch fields[0] {
	case "inv":
		kind = Invoke
	case "res":
		kind = Respond
	default:
		return Event{}, fmt.Errorf("unknown action kind %q", fields[0])
	}
	t, err := refParseThread(fields[1])
	if err != nil {
		return Event{}, err
	}
	dot := strings.LastIndexByte(fields[2], '.')
	if dot <= 0 || dot == len(fields[2])-1 {
		return Event{}, fmt.Errorf("malformed target %q, want obj.method", fields[2])
	}
	o, f := ObjectID(fields[2][:dot]), Method(fields[2][dot+1:])
	v, err := refParseValue(fields[3])
	if err != nil {
		return Event{}, err
	}
	if kind == Invoke {
		return Inv(t, o, f, v), nil
	}
	return Res(t, o, f, v), nil
}

func refParseThread(s string) (ThreadID, error) {
	// Insist on t followed by decimal digits only: no signs, no spaces, so
	// every accepted id round-trips through ThreadID.String.
	if len(s) < 2 || s[0] != 't' {
		return 0, fmt.Errorf("malformed thread id %q, want tN", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("malformed thread id %q, want tN", s)
		}
	}
	n, err := strconv.ParseInt(s[1:], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed thread id %q: %w", s, err)
	}
	return ThreadID(n), nil
}

// refParseValue parses the notation produced by Value.String.
func refParseValue(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "()":
		return Unit(), nil
	case s == "true" || s == "false":
		return Bool(s == "true"), nil
	case strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")"):
		body := s[1 : len(s)-1]
		parts := strings.SplitN(body, ",", 2)
		if len(parts) != 2 {
			return Value{}, fmt.Errorf("history: malformed pair %q", s)
		}
		bs := strings.TrimSpace(parts[0])
		if bs != "true" && bs != "false" {
			return Value{}, fmt.Errorf("history: malformed pair bool %q", s)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("history: malformed pair int %q: %w", s, err)
		}
		return Pair(bs == "true", n), nil
	default:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("history: malformed value %q: %w", s, err)
		}
		return Int(n), nil
	}
}

// referenceLimits are the limits the differential tests parse under,
// picked by a selector: none, an event limit, a byte limit, or both.
var referenceLimits = [...]Limits{{}, {MaxEvents: 2}, {MaxBytes: 64}, {MaxBytes: 64, MaxEvents: 2}}

// referenceSeeds are the FuzzParseHistory seeds plus the edges where a
// byte scanner could part from strings.Split, strings.TrimSpace and
// strings.Fields: Unicode and ASCII separators, comments after
// indentation, invalid UTF-8, thread ids at the edges of strconv, empty
// object and method names, values at the edges of strconv, malformed
// pairs, field counts, a missing last newline, and an event-count
// overflow after comments.
var referenceSeeds = append(append([]string(nil), parseSeeds...),
	"inv\u00a0t1\u00a0E.exchange\u00a03\n",
	"inv\u0085t1 E.exchange 3\nres t1\u0085E.exchange\u0085(true,4)\u0085\n",
	"inv t1\u2028E.exchange 3\u2028\n",
	"\u3000inv t1 E.exchange\u30003\u3000\n",
	"inv t1 E.exchange 3\r\n\r\nres t1 E.exchange (true,4)\r\n",
	"inv\vt1\fE.exchange\t3\n\v\f\t\n",
	"   # comment\ninv t1 E.exchange 3\n",
	"\u00a0# comment\n\t#\n",
	"inv t1 E\xff.exchange 3\n",
	"inv t1 \xe2\x80E.exchange 3\n",
	"inv t007 E.exchange 3\n",
	"inv t"+strings.Repeat("9", 19)+" E.exchange 3\n",
	"inv t1 .exchange 3\n",
	"inv t1 E. 3\n",
	"inv t1 E.exchange +5\n",
	"inv t1 E.exchange -0\n",
	"inv t1 E.exchange 9223372036854775808\n",
	"res t1 E.exchange (true,4,5)\n",
	"res t1 E.exchange (true,)\n",
	"res t1 E.exchange (,)\n",
	"res t1 E.exchange ()\n",
	"inv t1 E.exchange 3 4\n",
	"inv t1 E.exchange 3\nres t1 E.exchange (true,4)",
	"# one\n# two\ninv t1 E.exchange 1\n# three\nres t1 E.exchange (true,2)\n\n# four\ninv t2 E.exchange 2\n",
)

// checkMatchesReference fails t unless ParseFileLimited and the
// reference parser agree on src under lim: equal histories (nil-ness
// included), or equal *SyntaxError values.
func checkMatchesReference(t *testing.T, src string, lim Limits) {
	t.Helper()
	got, err := ParseFileLimited("f", src, lim)
	want, wantErr := refParseFileLimited("f", src, lim)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q %+v: error %v, reference %v", src, lim, err, wantErr)
	}
	if err != nil {
		var se, wse *SyntaxError
		if !errors.As(err, &se) || !errors.As(wantErr, &wse) || *se != *wse {
			t.Fatalf("%q %+v: error %#v, reference %#v", src, lim, err, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q %+v:\n got %#v\nwant %#v", src, lim, got, want)
	}
}

func TestParseMatchesReference(t *testing.T) {
	for _, src := range referenceSeeds {
		for _, lim := range referenceLimits {
			checkMatchesReference(t, src, lim)
		}
	}
}

// FuzzParseMatchesReference holds the one-pass scanner to the language,
// the diagnostics and the Limits of the reference parser.
func FuzzParseMatchesReference(f *testing.F) {
	for _, src := range referenceSeeds {
		for sel := range referenceLimits {
			f.Add(src, uint8(sel))
		}
	}
	f.Fuzz(func(t *testing.T, src string, sel uint8) {
		checkMatchesReference(t, src, referenceLimits[int(sel)%len(referenceLimits)])
	})
}
