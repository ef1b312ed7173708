package trace

import (
	"bytes"
	"strings"
	"testing"

	"calgo/internal/history"
)

const (
	objE history.ObjectID = "E"
	objS history.ObjectID = "S"
	exch history.Method   = "exchange"
)

func exOp(t history.ThreadID, arg int64, ok bool, ret int64) Operation {
	return Operation{Thread: t, Object: objE, Method: exch, Arg: history.Int(arg), Ret: history.Pair(ok, ret)}
}

// swapElem is the paper's E.swap(t,v,t',v') abbreviation.
func swapElem(t history.ThreadID, v int64, u history.ThreadID, w int64) Element {
	return MustElement(exOp(t, v, true, w), exOp(u, w, true, v))
}

func failElem(t history.ThreadID, v int64) Element {
	return MustElement(exOp(t, v, false, v))
}

func TestNewElementValidation(t *testing.T) {
	tests := []struct {
		name    string
		ops     []Operation
		wantErr string
	}{
		{"empty", nil, "empty"},
		{"singleton ok", []Operation{exOp(1, 3, false, 3)}, ""},
		{"pair ok", []Operation{exOp(1, 3, true, 4), exOp(2, 4, true, 3)}, ""},
		{"duplicate op", []Operation{exOp(1, 3, false, 3), exOp(1, 3, false, 3)}, "duplicate"},
		{"same thread twice", []Operation{exOp(1, 3, true, 4), exOp(1, 4, true, 3)}, "thread"},
		{"mixed objects", []Operation{
			exOp(1, 3, true, 4),
			{Thread: 2, Object: objS, Method: "push", Arg: history.Int(1), Ret: history.Bool(true)},
		}, "mixes objects"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e, err := NewElement(tt.ops...)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("NewElement: %v", err)
				}
				if e.Size() != len(tt.ops) {
					t.Errorf("Size() = %d, want %d", e.Size(), len(tt.ops))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("NewElement error = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestElementCanonicalOrder(t *testing.T) {
	a := MustElement(exOp(2, 4, true, 3), exOp(1, 3, true, 4))
	b := MustElement(exOp(1, 3, true, 4), exOp(2, 4, true, 3))
	if !a.Equal(b) {
		t.Error("element equality must be order-insensitive")
	}
	if !bytes.Equal(AppendElement(nil, a), AppendElement(nil, b)) {
		t.Error("canonical encodings must match")
	}
}

// TestAppendElementExact pins that distinct canonical elements encode
// differently, including ones whose String renderings agree.
func TestAppendElementExact(t *testing.T) {
	elems := []Element{
		Singleton(exOp(1, 3, true, 4)),
		Singleton(exOp(2, 3, true, 4)),
		Singleton(exOp(1, 4, true, 4)),
		Singleton(exOp(1, 3, false, 4)),
		Singleton(exOp(1, 3, true, 5)),
		MustElement(exOp(1, 3, true, 4), exOp(2, 4, true, 3)),
		Singleton(Operation{Thread: 1, Object: objS, Method: exch, Arg: history.Int(3), Ret: history.Pair(true, 4)}),
		Singleton(Operation{Thread: 1, Object: objE, Method: "push", Arg: history.Int(3), Ret: history.Bool(true)}),
		Singleton(Operation{Thread: 1, Object: "a.b", Method: "c", Arg: history.Unit(), Ret: history.Unit()}),
		Singleton(Operation{Thread: 1, Object: "a", Method: "b.c", Arg: history.Unit(), Ret: history.Unit()}),
	}
	seen := map[string]Element{}
	for _, e := range elems {
		k := string(AppendElement(nil, e))
		if prev, dup := seen[k]; dup {
			t.Errorf("%v and %v share an encoding", prev, e)
		}
		seen[k] = e
	}
}

func TestMustElementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustElement on empty input should panic")
		}
	}()
	MustElement()
}

func TestSingleton(t *testing.T) {
	op := exOp(3, 7, false, 7)
	e := Singleton(op)
	if e.Size() != 1 || e.Object != objE || e.Ops[0] != op {
		t.Errorf("Singleton = %v", e)
	}
}

func TestMentions(t *testing.T) {
	e := swapElem(1, 3, 2, 4)
	if !e.Mentions(1) || !e.Mentions(2) || e.Mentions(3) {
		t.Error("Mentions wrong")
	}
}

func TestTraceProjections(t *testing.T) {
	sOp := Operation{Thread: 5, Object: objS, Method: "push", Arg: history.Int(9), Ret: history.Bool(true)}
	tr := Trace{swapElem(1, 3, 2, 4), failElem(3, 7), Singleton(sOp)}

	// T|t returns elements mentioning t, including partners' operations.
	t1 := tr.ByThread(1)
	if len(t1) != 1 || t1[0].Size() != 2 {
		t.Errorf("T|t1 = %v; partner ops must be retained", t1)
	}
	if got := len(tr.ByThread(3)); got != 1 {
		t.Errorf("|T|t3| = %d, want 1", got)
	}
	if got := len(tr.ByThread(9)); got != 0 {
		t.Errorf("|T|t9| = %d, want 0", got)
	}
	if got := len(tr.ByObject(objE)); got != 2 {
		t.Errorf("|T|E| = %d, want 2", got)
	}
	if got := len(tr.ByObject(objS)); got != 1 {
		t.Errorf("|T|S| = %d, want 1", got)
	}
}

func TestTraceOperationsAndEqual(t *testing.T) {
	tr := Trace{swapElem(1, 3, 2, 4), failElem(3, 7)}
	if got := len(tr.Operations()); got != 3 {
		t.Errorf("Operations() len = %d, want 3", got)
	}
	same := Trace{swapElem(2, 4, 1, 3), failElem(3, 7)} // canonical ordering
	if !tr.Equal(same) {
		t.Error("traces should be equal up to element canonicalization")
	}
	if tr.Equal(Trace{failElem(3, 7), swapElem(1, 3, 2, 4)}) {
		t.Error("element order matters for trace equality")
	}
	if tr.Equal(tr[:1]) {
		t.Error("different lengths must differ")
	}
}

func TestTraceString(t *testing.T) {
	if got := (Trace{}).String(); got != "ε" {
		t.Errorf("empty trace String() = %q, want ε", got)
	}
	s := Trace{swapElem(1, 3, 2, 4)}.String()
	for _, frag := range []string{"E.{", "(t1, exchange(3) ▷ (true,4))", "(t2, exchange(4) ▷ (true,3))"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestOpOf(t *testing.T) {
	hop := history.Op{Thread: 1, Object: objE, Method: exch, Arg: history.Int(3), Ret: history.Pair(true, 4), InvIndex: 0, ResIndex: 5}
	got := OpOf(hop)
	want := exOp(1, 3, true, 4)
	if got != want {
		t.Errorf("OpOf = %v, want %v", got, want)
	}
}
