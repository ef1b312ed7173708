package monitor

import (
	"sort"

	"calgo/internal/history"
)

// core is a closed interval [s, e] during which a value is surely present.
type core struct{ s, e int }

// emptyViolation is an empty-result operation's open window (inv, res)
// and the merged core [s, e] that covers it.
type emptyViolation struct {
	inv, res int
	s, e     int
}

// coveredEmpty merges the closed cores and reports the first empty-result
// operation whose open window (InvIndex, ResIndex) is fully covered by a
// single merged core. The stack (S2) and priority-queue (P3) monitors
// use it; the queue stepper keeps its cores merged incrementally.
func coveredEmpty(empties []history.Op, cores []core) (emptyViolation, bool) {
	if len(cores) == 0 {
		return emptyViolation{}, false
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i].s < cores[j].s })
	merged := cores[:1]
	for _, c := range cores[1:] {
		last := &merged[len(merged)-1]
		if c.s <= last.e {
			if c.e > last.e {
				last.e = c.e
			}
			continue
		}
		merged = append(merged, c)
	}
	starts := make([]int, len(merged))
	for i, c := range merged {
		starts[i] = c.s
	}
	for _, op := range empties {
		// Find the last merged core starting at or before the window start.
		idx := sort.SearchInts(starts, op.InvIndex+1) - 1
		if idx >= 0 && op.ResIndex <= merged[idx].e {
			return emptyViolation{inv: op.InvIndex, res: op.ResIndex, s: merged[idx].s, e: merged[idx].e}, true
		}
	}
	return emptyViolation{}, false
}
