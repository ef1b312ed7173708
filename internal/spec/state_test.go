package spec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"calgo/internal/history"
	"calgo/internal/trace"
)

// decode returns the values of s in order.
func decode(s ints) []int64 {
	var out []int64
	for i := 0; i < len(s); {
		v, j := s.next(i)
		out = append(out, v)
		i = j
	}
	return out
}

// content renders what a state means to its spec, without its key:
// sequences in order, and the collections whose spec cannot tell orders
// of insertion apart sorted.
func content(st State) string {
	sorted := func(s ints) []int64 { v := decode(s); slices.Sort(v); return v }
	switch s := st.(type) {
	case queueState:
		return fmt.Sprint("queue", decode(s.items))
	case stackState:
		return fmt.Sprint("stack", decode(s.items))
	case setState:
		return fmt.Sprint("set", sorted(s.items))
	case pqueueState:
		return fmt.Sprint("pqueue", sorted(s.items))
	case snapshotState:
		return fmt.Sprint("snapshot", sorted(s.values), sorted(s.threads), s.count)
	case registerState:
		return fmt.Sprint("register", s.v)
	case productState:
		parts := make([]string, len(s.parts))
		for i, p := range s.parts {
			parts[i] = content(p)
		}
		return "product(" + strings.Join(parts, ";") + ")"
	case emptyState:
		return "empty"
	}
	panic(fmt.Sprintf("no content for %T", st))
}

func single(o history.ObjectID, m history.Method, arg, ret history.Value) trace.Element {
	return trace.Singleton(trace.Operation{Thread: 1, Object: o, Method: m, Arg: arg, Ret: ret})
}

func pair(o history.ObjectID, give, recv history.Method, v, got int64) trace.Element {
	return trace.MustElement(
		trace.Operation{Thread: 1, Object: o, Method: give, Arg: history.Int(v), Ret: history.Bool(true)},
		trace.Operation{Thread: 2, Object: o, Method: recv, Arg: history.Unit(), Ret: history.Pair(true, got)},
	)
}

// collection returns the singletons of a collection spec over vals: every
// add-like and remove-like method with every value, and the failed
// remove-like one.
func collection(o history.ObjectID, add, del history.Method, vals []int64) []trace.Element {
	out := []trace.Element{single(o, del, history.Unit(), history.Pair(false, 0))}
	for _, v := range vals {
		out = append(out,
			single(o, add, history.Int(v), history.Bool(true)),
			single(o, del, history.Unit(), history.Pair(true, v)))
	}
	return out
}

// TestSpecKeysInjective walks the states each stateful spec reaches from
// a small alphabet and requires equal keys exactly for equal contents.
// Every rejection met on the way must also render cleanly.
func TestSpecKeysInjective(t *testing.T) {
	vals := []int64{-65, 0, 64}
	var setAlpha, regAlpha, snapAlpha, prodAlpha []trace.Element
	for _, v := range []int64{-1, 0, 64} {
		for _, ok := range []bool{true, false} {
			for _, m := range []history.Method{MethodAdd, MethodRemove, MethodContains} {
				setAlpha = append(setAlpha, single("ST", m, history.Int(v), history.Bool(ok)))
			}
		}
		regAlpha = append(regAlpha,
			single("R", MethodWrite, history.Int(v), history.Unit()),
			single("R", MethodRead, history.Unit(), history.Int(v)))
	}
	for prior := 0; prior < 3; prior++ {
		for _, v := range []int64{0, 64} {
			snapAlpha = append(snapAlpha,
				BlockElement("IS", prior, [2]int64{1, v}),
				BlockElement("IS", prior, [2]int64{3, v}),
				BlockElement("IS", prior, [2]int64{1, v}, [2]int64{2, -v}))
		}
	}
	for _, v := range []int64{-16, 33, -31} {
		for _, o := range []history.ObjectID{"A", "B"} {
			prodAlpha = append(prodAlpha, single(o, MethodEnq, history.Int(v), history.Bool(true)))
		}
	}
	prodAlpha = append(prodAlpha, single("A", MethodDeq, history.Unit(), history.Pair(true, 33)))
	dualQ := append(collection("Q", MethodEnq, MethodDeq, vals), pair("Q", MethodEnq, MethodDeq, 0, 0), pair("Q", MethodEnq, MethodDeq, 0, 64))
	dualS := append(collection("S", MethodPush, MethodPop, vals), pair("S", MethodPush, MethodPop, 64, 64), pair("S", MethodPop, MethodPush, 0, 0))
	cases := []struct {
		sp    Spec
		alpha []trace.Element
		depth int
	}{
		{NewQueue("Q"), collection("Q", MethodEnq, MethodDeq, vals), 4},
		{NewDualQueue("Q"), dualQ, 4},
		{NewStack("S"), collection("S", MethodPush, MethodPop, vals), 4},
		{NewDualStack("S"), dualS, 4},
		{NewSet("ST"), setAlpha, 4},
		{NewPQueue("PQ"), collection("PQ", MethodInsert, MethodExtractMin, vals), 4},
		{NewSnapshot("IS", 3), snapAlpha, 3},
		{NewRegister("R"), regAlpha, 3},
		{NewSyncQueue("SQ"), []trace.Element{pair("SQ", MethodPut, MethodTake, 5, 5), pair("SQ", MethodPut, MethodTake, 5, 6)}, 2},
		{MustProduct(NewQueue("A"), NewQueue("B")), prodAlpha, 3},
	}
	for _, tc := range cases {
		t.Run(tc.sp.Name(), func(t *testing.T) {
			byKey := map[string]string{}
			byContent := map[string]string{}
			frontier := []State{tc.sp.Init()}
			for d := 0; d <= tc.depth; d++ {
				var next []State
				for _, st := range frontier {
					k, c := st.Key(), content(st)
					if prev, ok := byKey[k]; ok && prev != c {
						t.Fatalf("key %q is shared by %s and %s", k, prev, c)
					}
					if prev, ok := byContent[c]; ok && prev != k {
						t.Fatalf("%s has keys %q and %q", c, prev, k)
					}
					byKey[k], byContent[c] = c, k
					if d == tc.depth {
						continue
					}
					for _, el := range tc.alpha {
						succ, err := tc.sp.Step(st, el)
						if err != nil {
							if msg := err.Error(); strings.Contains(msg, "%!") {
								t.Fatalf("rejection renders badly: %s", msg)
							}
							continue
						}
						next = append(next, succ)
					}
				}
				frontier = next
			}
		})
	}

	// A part key may hold any byte, the product's '=' included: only the
	// length prefix keeps "A holds these values, B is empty" apart from
	// "A is empty, B holds them".
	p := MustProduct(NewQueue("A"), NewQueue("B"))
	for _, vs := range [][]int64{{-16, 33, -31}, {33, -31}} {
		inA, inB := p.Init(), p.Init()
		for _, v := range vs {
			inA, _ = p.Step(inA, single("A", MethodEnq, history.Int(v), history.Bool(true)))
			inB, _ = p.Step(inB, single("B", MethodEnq, history.Int(v), history.Bool(true)))
		}
		if inA.Key() == inB.Key() {
			t.Errorf("values %v in A and in B share the key %q", vs, inA.Key())
		}
	}
}
