package stream

import (
	"fmt"
	"slices"

	"calgo/internal/check"
	"calgo/internal/history"
	"calgo/internal/monitor"
	"calgo/internal/spec"
)

// objEngine maintains one object's incremental verdict. A spec with a
// monitor at element size 1 runs its stepper, and the buffered exact
// re-check is the stepper's only fallback: while the buffer still holds
// the complete event prefix (the stream is shorter than Config.Window),
// leaving the monitored fragment re-checks that prefix with the DFS; past
// that boundary it degrades honestly. Every other spec runs the windowed
// DFS re-check.
type objEngine struct {
	sp      spec.Spec
	checker *check.Checker
	stepper monitor.Stepper
	lbl     string

	buf       history.History
	buffering bool // stepper mode: buf is the complete prefix, fallback possible

	events     int
	sinceCheck int // dfs mode: events since the last re-check
	checked    bool
	lastIdx    int64
	shedSeen   int64 // stepper sheds already folded into the stream totals
	degraded   bool
}

func newObjEngine(comp spec.Spec, cfg *Config) (*objEngine, error) {
	// The checker only runs where no monitor decides: for a spec without
	// one, or on the very prefix a stepper punted on, where a monitor
	// pass could only punt again. So it runs the DFS alone.
	copts := append(slices.Clip(cfg.CheckOptions), check.WithEngine(check.EngineDFS))
	checker, err := check.NewChecker(comp, copts...)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	e := &objEngine{sp: comp, checker: checker, lbl: "dfs"}
	if monitor.SpecKind(comp) == monitor.KindNone || checker.MaxElementSize() != 1 {
		return e, nil
	}
	st, err := monitor.NewStepper(comp, cfg.CheckEvery)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	e.stepper, e.buffering = st, true
	e.lbl = "monitor:" + st.Kind().String()
	return e, nil
}

func (e *objEngine) obj() string {
	if o := e.sp.Object(); o != "" {
		return string(o)
	}
	return "all"
}

func (e *objEngine) label() string { return e.lbl }

func (e *objEngine) resident() int64 {
	r := int64(len(e.buf))
	if e.stepper != nil {
		r += int64(e.stepper.Stats().Resident)
	}
	return r
}

func (e *objEngine) stats() monitor.StepStats {
	if e.stepper != nil {
		return e.stepper.Stats()
	}
	return monitor.StepStats{Events: e.events, Resident: len(e.buf)}
}

// syncShed folds the stepper's internal shed count into the stream
// totals (and the stream.shed counter) exactly once.
func (e *objEngine) syncShed(s *Stream) {
	if e.stepper == nil {
		return
	}
	if sh := e.stepper.Stats().Shed; sh > e.shedSeen {
		s.shedBuffered(sh - e.shedSeen)
		e.shedSeen = sh
	}
}

func (e *objEngine) feed(s *Stream, ev history.Event, idx int64) {
	e.events++
	if e.degraded {
		return
	}
	e.lastIdx = idx
	if e.stepper != nil {
		r := e.stepper.Advance(ev, int(idx))
		switch r.Outcome {
		case monitor.OK:
			if e.buffering {
				e.buf = append(e.buf, ev)
				if len(e.buf) > s.cfg.Window {
					// Past the fallback window the stepper is on its own:
					// shed the decided prefix to bound memory.
					e.syncShed(s)
					s.shedBuffered(int64(len(e.buf)))
					e.buf = nil
					e.buffering = false
				}
			}
		case monitor.Violation:
			s.violate(int64(r.AtEvent), fmt.Sprintf("%s (object %s, %s)", r.Reason, e.obj(), e.lbl))
		default: // Ineligible, Inconclusive
			e.leaveFragment(s, &ev, idx, r)
		}
		return
	}
	// Windowed DFS: buffer and re-check on a cadence.
	e.buf = append(e.buf, ev)
	e.sinceCheck++
	if len(e.buf) > s.cfg.Window {
		// Last exact check over the full window, then degrade: shedding
		// events would silently weaken every later DFS verdict.
		e.recheck(s, idx)
		if e.degraded || s.status == Violation {
			return
		}
		n := int64(len(e.buf))
		e.buf = nil
		s.shedBuffered(n)
		e.degraded = true
		s.degrade(fmt.Sprintf("object %s outgrew the %d-event fallback window; verdict exact through event %d", e.obj(), s.cfg.Window, idx))
		return
	}
	if e.sinceCheck >= s.cfg.CheckEvery {
		e.recheck(s, idx)
	}
}

// leaveFragment handles a stepper punt (ineligible or inconclusive): an
// exact DFS fallback while the complete prefix is still buffered, honest
// degradation otherwise. ev is nil when punting at Finish.
func (e *objEngine) leaveFragment(s *Stream, ev *history.Event, idx int64, r monitor.StepResult) {
	e.syncShed(s)
	e.stepper = nil
	if !e.buffering {
		e.degraded = true
		s.degrade(fmt.Sprintf("%s %s at event %d: %s; the fallback window was already shed",
			e.lbl, r.Outcome, r.AtEvent, r.Reason))
		return
	}
	if ev != nil {
		e.buf = append(e.buf, *ev)
	}
	e.buffering = false
	e.lbl = "dfs"
	e.recheck(s, idx)
}

func (e *objEngine) recheck(s *Stream, idx int64) {
	e.sinceCheck = 0
	e.checked = true
	if s.mChecks != nil {
		s.mChecks.Inc()
	}
	res, err := e.checker.Check(s.ctx, e.buf)
	if err != nil {
		e.degraded = true
		e.buf = nil
		s.degrade(fmt.Sprintf("re-check at event %d failed: %v", idx, err))
		return
	}
	switch res.Verdict {
	case check.Sat:
	case check.Unsat:
		s.violate(idx, fmt.Sprintf("%s (object %s, dfs re-check)", reasonOf(res), e.obj()))
	default: // Unknown: bounds or cancellation
		e.degraded = true
		e.buf = nil
		s.degrade(fmt.Sprintf("re-check at event %d undecided: %s", idx, reasonOf(res)))
	}
}

func (e *objEngine) finish(s *Stream) {
	if e.degraded {
		return
	}
	if e.stepper != nil {
		r := e.stepper.Finish()
		e.syncShed(s)
		switch r.Outcome {
		case monitor.OK:
		case monitor.Violation:
			s.violate(int64(r.AtEvent), fmt.Sprintf("%s (object %s, %s)", r.Reason, e.obj(), e.lbl))
		default:
			e.leaveFragment(s, nil, e.lastIdx, r)
		}
		e.buf = nil
		return
	}
	if e.events > 0 && (e.sinceCheck > 0 || !e.checked) {
		e.recheck(s, e.lastIdx)
	}
	e.buf = nil
}

func reasonOf(res check.Result) string {
	if res.Reason != "" {
		return res.Reason
	}
	if res.Unknown != nil {
		if res.Unknown.Reason != "" {
			return res.Unknown.Reason
		}
		if res.Unknown.Cause != nil {
			return res.Unknown.Cause.Error()
		}
	}
	return "no linearization found"
}
