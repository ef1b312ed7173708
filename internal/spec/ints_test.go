package spec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// intsEdges are the extremes and the values at which a zigzag varint
// grows by a byte.
var intsEdges = []int64{
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64,
	0, -1, 1, 63, 64, -64, -65, 8191, 8192, -8192, -8193,
}

// Operations of an ints program, each applied to an ints and to a
// []int64 reference.
const (
	opPush = iota
	opInsert
	opRemove
	opFront
	opBack
	opHas
	numIntsOps
)

type intsStep struct {
	op int
	v  int64
}

// runInts applies prog to an ints and to a slice, failing on the first
// disagreement in a result, in the encoding or in the rendering.
func runInts(t *testing.T, prog []intsStep) {
	t.Helper()
	var s ints
	var ref []int64
	for k, st := range prog {
		switch st.op {
		case opPush:
			s = s.push(st.v)
			ref = append(ref, st.v)
		case opInsert:
			s = s.insert(st.v)
			i := 0
			for i < len(ref) && ref[i] <= st.v {
				i++
			}
			ref = slices.Insert(ref, i, st.v)
		case opRemove:
			s = s.remove(st.v)
			if i := slices.Index(ref, st.v); i >= 0 {
				ref = slices.Delete(ref, i, i+1)
			}
		case opFront:
			v, rest, ok := s.front()
			if ok != (len(ref) > 0) || (ok && v != ref[0]) {
				t.Fatalf("step %d: front = %d, %v; reference %v", k, v, ok, ref)
			}
			if ok {
				s, ref = rest, ref[1:]
			}
		case opBack:
			v, rest, ok := s.back()
			if ok != (len(ref) > 0) || (ok && v != ref[len(ref)-1]) {
				t.Fatalf("step %d: back = %d, %v; reference %v", k, v, ok, ref)
			}
			if ok {
				s, ref = rest, ref[:len(ref)-1]
			}
		case opHas:
			if got, want := s.has(st.v), slices.Contains(ref, st.v); got != want {
				t.Fatalf("step %d: has(%d) = %v; reference %v", k, st.v, got, ref)
			}
		}
		var enc []byte
		dec := make([]string, len(ref))
		for i, v := range ref {
			enc = binary.AppendVarint(enc, v)
			dec[i] = strconv.FormatInt(v, 10)
		}
		if string(s) != string(enc) {
			t.Fatalf("step %d (op %d, %d): encoding %x, want the canonical %x of %v", k, st.op, st.v, string(s), enc, ref)
		}
		if got := s.String(); got != strings.Join(dec, ",") {
			t.Fatalf("step %d: String() = %q; reference %v", k, got, ref)
		}
	}
}

func TestIntsMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 300; round++ {
		prog := make([]intsStep, 1+rng.Intn(60))
		for i := range prog {
			v := intsEdges[rng.Intn(len(intsEdges))]
			switch rng.Intn(3) {
			case 0:
				v = int64(rng.Intn(9)) - 4 // small values repeat, so remove and has hit
			case 1:
				v = rng.Int63() - rng.Int63()
			}
			prog[i] = intsStep{op: rng.Intn(numIntsOps), v: v}
		}
		runInts(t, prog)
	}
}

// FuzzInts decodes each input into an ints program: one byte selects the
// operation; the next selects a small value, an edge value, or (when it is
// 0xff) the eight bytes after it as the value.
func FuzzInts(f *testing.F) {
	f.Add([]byte{opPush, 0, opPush, 200, opBack, 0, opFront, 0})
	f.Add([]byte{opInsert, 130, opInsert, 131, opInsert, 3, opRemove, 131, opHas, 3})
	f.Add([]byte{opInsert, 0xff, 1, 2, 3, 4, 5, 6, 7, 0x80, opBack, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		var prog []intsStep
		for len(in) >= 2 {
			st := intsStep{op: int(in[0]) % numIntsOps}
			switch b := in[1]; {
			case b == 0xff && len(in) >= 10:
				st.v = int64(binary.LittleEndian.Uint64(in[2:10]))
				in = in[8:]
			case b >= 128:
				st.v = intsEdges[int(b)%len(intsEdges)]
			default:
				st.v = int64(b%16) - 8
			}
			prog = append(prog, st)
			in = in[2:]
		}
		runInts(t, prog)
	})
}
