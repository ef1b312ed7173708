package render_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/render"
)

// matrixReduction is the transitive reduction of ≺H computed from the
// dense real-time matrix: i -> j unless some k has i ≺H k ≺H j. It is the
// reference for DOT's reduction from interval endpoints.
func matrixReduction(ops []history.Op) []string {
	rt := history.RTOrder(ops)
	var edges []string
	for i := range ops {
		for j := range ops {
			if !rt[i][j] {
				continue
			}
			covered := false
			for k := 0; k < len(ops) && !covered; k++ {
				covered = rt[i][k] && rt[k][j]
			}
			if !covered {
				edges = append(edges, fmt.Sprintf("  op%d -> op%d;", i, j))
			}
		}
	}
	return edges
}

// randomHistory interleaves random invocations and responses of 1–5
// threads; an operation still open at the end stays pending.
func randomHistory(rng *rand.Rand) history.History {
	threads := 1 + rng.Intn(5)
	open := make([]bool, threads)
	var h history.History
	for steps := 2 + rng.Intn(20); steps > 0; steps-- {
		t := rng.Intn(threads)
		tid := history.ThreadID(t + 1)
		if open[t] {
			h = append(h, res(tid, false, int64(steps)))
		} else {
			h = append(h, inv(tid, int64(steps)))
		}
		open[t] = !open[t]
	}
	return h
}

func TestDOTEdgesMatchMatrixReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 5000; n++ {
		ops := randomHistory(rng).Operations()
		var got []string
		for _, line := range strings.Split(render.DOT(&check.Explanation{Ops: ops}), "\n") {
			if strings.Contains(line, " -> ") {
				got = append(got, line)
			}
		}
		if want := matrixReduction(ops); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("history %d (%v): DOT edges\n%s\nwant\n%s", n, ops, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
