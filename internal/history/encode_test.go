package history

import (
	"bytes"
	"testing"
)

// TestAppendEventExact pins that the event encoding separates every
// field Format renders: events that differ in one field encode
// differently, and so do sequences whose fields only concatenate alike.
func TestAppendEventExact(t *testing.T) {
	base := Inv(1, "E", "exchange", Int(3))
	variants := []Event{
		base,
		Inv(2, "E", "exchange", Int(3)),
		Inv(1, "F", "exchange", Int(3)),
		Inv(1, "E", "swap", Int(3)),
		Inv(1, "E", "exchange", Int(4)),
		Inv(1, "E", "exchange", Bool(true)),
		Inv(1, "E", "exchange", Pair(true, 3)),
		Inv(1, "E", "exchange", Pair(false, 3)),
		Inv(1, "E", "exchange", Unit()),
		Res(1, "E", "exchange", Int(3)),
		Inv(-1, "E", "exchange", Int(-3)),
	}
	seen := map[string]Event{}
	for _, e := range variants {
		k := string(AppendEvent(nil, e))
		if prev, dup := seen[k]; dup {
			t.Errorf("%v and %v share an encoding", prev, e)
		}
		seen[k] = e
	}

	// Field boundaries: "ab"+"c" and "a"+"bc" must not collide, nor may
	// a history split differently into events.
	x := AppendEvent(nil, Inv(1, "ab", "c", Unit()))
	y := AppendEvent(nil, Inv(1, "a", "bc", Unit()))
	if bytes.Equal(x, y) {
		t.Error("object/method boundary is not encoded")
	}
	if bytes.Equal(AppendString(AppendString(nil, "ab"), ""), AppendString(AppendString(nil, "a"), "b")) {
		t.Error("string boundary is not encoded")
	}
}

// TestAppendEventIgnoresUnusedValue pins that the encoding covers what
// Format covers: an invocation's Ret and a response's Arg are not part
// of the action.
func TestAppendEventIgnoresUnusedValue(t *testing.T) {
	inv := Inv(1, "E", "exchange", Int(3))
	withRet := inv
	withRet.Ret = Pair(true, 9)
	if !bytes.Equal(AppendEvent(nil, inv), AppendEvent(nil, withRet)) {
		t.Error("an invocation's Ret changed its encoding")
	}
	res := Res(1, "E", "exchange", Pair(true, 4))
	withArg := res
	withArg.Arg = Int(9)
	if !bytes.Equal(AppendEvent(nil, res), AppendEvent(nil, withArg)) {
		t.Error("a response's Arg changed its encoding")
	}
}
