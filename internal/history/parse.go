package history

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Format renders h in the line-oriented interchange format accepted by
// Parse:
//
//	inv t1 E.exchange 3
//	res t1 E.exchange (true,4)
//
// Blank lines and lines starting with '#' are ignored by Parse.
func Format(h History) string {
	var b strings.Builder
	for _, e := range h {
		switch e.Kind {
		case Invoke:
			fmt.Fprintf(&b, "inv %s %s.%s %s\n", e.Thread, e.Object, e.Method, e.Arg)
		case Respond:
			fmt.Fprintf(&b, "res %s %s.%s %s\n", e.Thread, e.Object, e.Method, e.Ret)
		}
	}
	return b.String()
}

// SyntaxError reports a malformed history line with its position. File is
// empty when the source had no name (e.g. a string literal or stdin).
type SyntaxError struct {
	File string
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	if e.File == "" {
		return fmt.Sprintf("history: line %d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Parse reads the interchange format produced by Format. Errors are
// *SyntaxError values citing the offending line; Parse never panics,
// whatever the input.
func Parse(src string) (History, error) {
	return ParseFile("", src)
}

// ParseFile is Parse with a source name for diagnostics: errors render as
// name:line: message, the convention editors and CI log scrapers follow.
func ParseFile(name, src string) (History, error) {
	return ParseFileLimited(name, src, Limits{})
}

// Limits bounds what ParseFileLimited accepts, so a service can reject
// hostile or oversized uploads with a precise diagnostic instead of
// parsing (and allocating for) them. A zero field means unlimited.
type Limits struct {
	// MaxBytes rejects the input before parsing when the source exceeds
	// this many bytes.
	MaxBytes int
	// MaxEvents rejects the input at the first event line past this
	// count (each inv/res line is one event).
	MaxEvents int
}

// ParseFileLimited is ParseFile under input limits. Violations are
// *SyntaxError values like any other parse failure: an oversized source
// is reported at line 1, an event-count overflow at the offending line,
// both naming the limit so the submitter knows what to shrink.
//
// It splits lines and fields in place and makes one allocation, the
// result, sized by a count of the lines that are neither blank nor
// comments. Object and Method are substrings of src.
func ParseFileLimited(name, src string, lim Limits) (History, error) {
	if lim.MaxBytes > 0 && len(src) > lim.MaxBytes {
		return nil, &SyntaxError{File: name, Line: 1,
			Msg: fmt.Sprintf("input is %d bytes, limit is %d", len(src), lim.MaxBytes)}
	}
	n := eventLines(src)
	if n == 0 {
		return nil, nil
	}
	// The shortest event line, "inv t0 o.m 0", has 12 bytes, so no more
	// events than this can parse, however many short lines src has.
	n = min(n, len(src)/12+1)
	if lim.MaxEvents > 0 {
		n = min(n, lim.MaxEvents)
	}
	h := make(History, 0, n)
	var f [4]string
	for ln, rest := 1, src; rest != ""; ln++ {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		i := eventStart(line)
		if i < 0 {
			continue
		}
		if lim.MaxEvents > 0 && len(h) >= lim.MaxEvents {
			return nil, &SyntaxError{File: name, Line: ln,
				Msg: fmt.Sprintf("history exceeds %d events", lim.MaxEvents)}
		}
		nf := 0
		for i < len(line) {
			j := skip(line, i, false)
			if nf < len(f) {
				f[nf] = line[i:j]
			}
			nf++
			i = skip(line, j, true)
		}
		if nf != len(f) {
			return nil, &SyntaxError{File: name, Line: ln,
				Msg: fmt.Sprintf("want 4 fields %q, got %d", "kind thread obj.method value", nf)}
		}
		h = append(h, Event{})
		if err := parseEvent(&h[len(h)-1], f[0], f[1], f[2], f[3]); err != nil {
			return nil, &SyntaxError{File: name, Line: ln, Msg: err.Error()}
		}
	}
	return h, nil
}

// eventLines counts the lines of src that are neither blank nor
// comments: the most events src can hold.
func eventLines(src string) int {
	n := 0
	for rest := src; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if eventStart(line) >= 0 {
			n++
		}
	}
	return n
}

// eventStart returns the offset of the first non-space rune of line, or
// -1 when the line is blank or a comment (its first non-space rune is
// '#').
func eventStart(line string) int {
	i := skip(line, 0, true)
	if i == len(line) || line[i] == '#' {
		return -1
	}
	return i
}

// asciiSpace marks the ASCII white space of unicode.IsSpace.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skip returns the offset of the first rune at or after i in s whose
// white-space test differs from space, or len(s). White space is what
// strings.Fields and strings.TrimSpace take it to be: unicode.IsSpace of
// each rune, an invalid UTF-8 byte being a non-space rune.
func skip(s string, i int, space bool) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				return i
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) != space {
			return i
		}
		i += w
	}
	return i
}

// parseEvent parses the four fields of an event line into e, checking
// them in order: kind, thread, target, value.
func parseEvent(e *Event, kind, thread, target, value string) error {
	switch kind {
	case "inv":
		e.Kind = Invoke
	case "res":
		e.Kind = Respond
	default:
		return fmt.Errorf("unknown action kind %q", kind)
	}
	t, err := parseThread(thread)
	if err != nil {
		return err
	}
	dot := strings.LastIndexByte(target, '.')
	if dot <= 0 || dot == len(target)-1 {
		return fmt.Errorf("malformed target %q, want obj.method", target)
	}
	v, err := ParseValue(value)
	if err != nil {
		return err
	}
	e.Thread, e.Object, e.Method = t, ObjectID(target[:dot]), Method(target[dot+1:])
	if e.Kind == Invoke {
		e.Arg = v
	} else {
		e.Ret = v
	}
	return nil
}

func parseThread(s string) (ThreadID, error) {
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
