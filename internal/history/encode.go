package history

import "encoding/binary"

// The Append* encoders write exact, self-delimiting binary encodings:
// integers as varints, strings length-prefixed, so concatenated
// encodings decode unambiguously and two different inputs never share
// an encoding. They are the byte form of what Format renders, for
// callers that compare or hash histories rather than display them (the
// explorer's state keys, Fingerprint).

// AppendString appends s, prefixed with its length.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendValue appends the encoding of v: its kind, its boolean and its
// integer.
func AppendValue(b []byte, v Value) []byte {
	flag := byte(0)
	if v.B {
		flag = 1
	}
	b = append(b, byte(v.Kind), flag)
	return binary.AppendVarint(b, v.N)
}

// AppendEvent appends the encoding of e: its kind, thread, object and
// method, and the value its kind carries — the argument of an
// invocation, the result of a response — which are the fields Format
// renders.
func AppendEvent(b []byte, e Event) []byte {
	b = append(b, byte(e.Kind))
	b = binary.AppendVarint(b, int64(e.Thread))
	b = AppendString(b, string(e.Object))
	b = AppendString(b, string(e.Method))
	switch e.Kind {
	case Invoke:
		b = AppendValue(b, e.Arg)
	case Respond:
		b = AppendValue(b, e.Ret)
	}
	return b
}
