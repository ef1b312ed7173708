package spec

import (
	"encoding/binary"
	"strconv"
	"strings"
)

// ints is an immutable sequence of integers: the concatenation of their
// zigzag varints, in encoding/binary's Varint format. The encoding is
// canonical, so two sequences are equal iff their strings are, and a
// state built on ints keys as its string. Only the last byte of each
// value has its high bit clear, so the sequence decodes from either end.
type ints string

// push appends v at the back.
func (s ints) push(v int64) ints {
	var buf [binary.MaxVarintLen64]byte
	return s + ints(binary.AppendVarint(buf[:0], v))
}

// insert adds v after every value not greater than it, so a sequence
// built by insert alone stays in ascending order.
func (s ints) insert(v int64) ints {
	i := 0
	for i < len(s) {
		x, j := s.next(i)
		if x > v {
			break
		}
		i = j
	}
	var buf [binary.MaxVarintLen64]byte
	return s[:i] + ints(binary.AppendVarint(buf[:0], v)) + s[i:]
}

// remove deletes the first occurrence of v, if any.
func (s ints) remove(v int64) ints {
	for i := 0; i < len(s); {
		x, j := s.next(i)
		if x == v {
			return s[:i] + s[j:]
		}
		i = j
	}
	return s
}

// has reports whether v occurs in s.
func (s ints) has(v int64) bool {
	for i := 0; i < len(s); {
		x, j := s.next(i)
		if x == v {
			return true
		}
		i = j
	}
	return false
}

// front returns the first value and the sequence after it; ok is false
// on the empty sequence.
func (s ints) front() (v int64, rest ints, ok bool) {
	if s == "" {
		return 0, s, false
	}
	v, j := s.next(0)
	return v, s[j:], true
}

// back returns the last value and the sequence before it; ok is false on
// the empty sequence.
func (s ints) back() (v int64, rest ints, ok bool) {
	if s == "" {
		return 0, s, false
	}
	i := len(s) - 1
	for i > 0 && s[i-1] >= 0x80 {
		i--
	}
	v, _ = s.next(i)
	return v, s[:i], true
}

// next decodes the value that starts at byte i and returns it with the
// offset just past it.
func (s ints) next(i int) (int64, int) {
	var ux uint64
	for shift := uint(0); ; shift += 7 {
		b := s[i]
		i++
		ux |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, i
}

// String renders the values in decimal, comma-separated, for diagnostics.
func (s ints) String() string {
	var b strings.Builder
	for i := 0; i < len(s); {
		x, j := s.next(i)
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(x, 10))
		i = j
	}
	return b.String()
}
