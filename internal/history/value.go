// Package history implements the history model of Hemed, Rinetzky and
// Vafeiadis: object actions (invocations and responses), well-formed
// histories, completions, and the real-time order (Definitions 1-3 of the
// paper). Histories record the interaction between a client program and an
// object system at the interface level.
package history

import (
	"fmt"
	"strconv"
	"strings"
)

// ValueKind discriminates the payload of a Value.
type ValueKind uint8

// The kinds of values exchanged across object interfaces. The paper's
// objects only traffic in unit, booleans, integers and (bool, int) pairs, so
// a small closed universe keeps Values comparable (usable as map keys) and
// cheap to hash, which the checkers rely on.
const (
	KindUnit ValueKind = iota + 1
	KindBool
	KindInt
	KindPair // a (bool, int) pair, e.g. the result of exchange or pop
)

// Value is an immutable, comparable argument or return value. The zero
// Value is invalid; use the constructors.
type Value struct {
	Kind ValueKind
	B    bool
	N    int64
}

// Unit returns the unit value (used for methods with no argument or result).
func Unit() Value { return Value{Kind: KindUnit} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Int returns an integer value.
func Int(n int64) Value { return Value{Kind: KindInt, N: n} }

// Pair returns a (bool, int) pair, the shape returned by exchange and pop.
func Pair(ok bool, n int64) Value { return Value{Kind: KindPair, B: ok, N: n} }

// IsZero reports whether v is the invalid zero Value.
func (v Value) IsZero() bool { return v.Kind == 0 }

// String renders the value in the paper's notation: (), true, 7, (true,4).
func (v Value) String() string {
	switch v.Kind {
	case KindUnit:
		return "()"
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindInt:
		return strconv.FormatInt(v.N, 10)
	case KindPair:
		return "(" + strconv.FormatBool(v.B) + "," + strconv.FormatInt(v.N, 10) + ")"
	default:
		return "<invalid>"
	}
}

// ParseValue parses the notation produced by Value.String.
func ParseValue(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "()":
		return Unit(), nil
	case s == "true" || s == "false":
		return Bool(s == "true"), nil
	case strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")"):
		body := s[1 : len(s)-1]
		comma := strings.IndexByte(body, ',')
		if comma < 0 {
			return Value{}, fmt.Errorf("history: malformed pair %q", s)
		}
		bs := strings.TrimSpace(body[:comma])
		if bs != "true" && bs != "false" {
			return Value{}, fmt.Errorf("history: malformed pair bool %q", s)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(body[comma+1:]), 10, 64)
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
