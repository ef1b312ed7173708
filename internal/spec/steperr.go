package spec

import (
	"fmt"

	"calgo/internal/trace"
)

// rejection is a Step error that formats only when read. The checker's
// subset enumeration probes Step with speculative elements and discards
// almost every rejection unread, so formatting the element, the state or
// the values eagerly would dominate the search's allocation profile for
// nothing. format takes its operands by explicit index: %[1]s is el,
// %[2]s the state, and %[3]d and %[4]d the integers n and m.
type rejection struct {
	format string
	el     trace.Element
	state  ints
	n, m   int64
}

func (r *rejection) Error() string { return fmt.Sprintf(r.format, r.el, r.state, r.n, r.m) }

// reject builds a rejection of el whose format uses el alone.
func reject(format string, el trace.Element) error { return &rejection{format: format, el: el} }
