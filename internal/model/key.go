package model

import (
	"encoding/binary"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// stateKey builds a state's Key: an exact binary encoding, not display
// text. Integers are varints and flags one byte, so the fields of a
// thread or a memory cell, written in a fixed order, delimit themselves;
// every variable-length section (the threads, the shared-memory arrays,
// the auxiliary trace, the history) is prefixed with its length. Two
// states therefore share a key only if every encoded field is equal —
// no state is identified by a hash.
//
// Each method returns the extended key, append-style, which lets the
// compiler keep newKey's buffer on the stack: the one allocation per
// key is the string finish returns.
type stateKey []byte

// newKey returns a key with room for a typical state; larger keys grow.
func newKey() stateKey { return make(stateKey, 0, 512) }

// section starts a variable-length section of n entries.
func (k stateKey) section(n int) stateKey { return binary.AppendUvarint(k, uint64(n)) }

// ints appends integer fields.
func (k stateKey) ints(vs ...int) stateKey {
	for _, v := range vs {
		k = binary.AppendVarint(k, int64(v))
	}
	return k
}

// int64s appends 64-bit integer fields (data values).
func (k stateKey) int64s(vs ...int64) stateKey {
	for _, v := range vs {
		k = binary.AppendVarint(k, v)
	}
	return k
}

// flags appends up to eight booleans as the bits of one byte.
func (k stateKey) flags(vs ...bool) stateKey {
	var f byte
	for i, v := range vs {
		if v {
			f |= 1 << i
		}
	}
	return append(k, f)
}

// finish appends the auxiliary trace and the history as the last two
// sections and returns the key.
func (k stateKey) finish(tr trace.Trace, h history.History) string {
	k = k.section(len(tr))
	for _, el := range tr {
		k = trace.AppendElement(k, el)
	}
	k = k.section(len(h))
	for _, e := range h {
		k = history.AppendEvent(k, e)
	}
	return string(k)
}

// shared returns s limited to its length, so a successor state can keep
// its parent's append-only slice (the trace, the history, cells that are
// never written after allocation) and any append reallocates instead of
// writing into the parent's backing array.
func shared[S ~[]E, E any](s S) S { return s[:len(s):len(s)] }
