package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer:
// name, start, end, the span that caused it, and the request (unit of
// work) every span of one request shares. Spans stay in memory and are
// written out when the run ends. A nil *tracer records nothing, so the
// untraced run pays one branch per call site.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span; the zero value (from a nil tracer) is inert.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

// begin opens a span. parent is the causing span's ID (0 for a root) and
// req the request ID (0 allocates a new one from the span's own ID).
func (t *tracer) begin(name string, parent, req int64) active {
	if t == nil {
		return active{}
	}
	id := t.ids.Add(1)
	if req == 0 {
		req = id
	}
	now := time.Now()
	return active{t: t, start: now, s: span{Name: name, ID: id, Parent: parent, Req: req, Start: now.Sub(t.t0).Nanoseconds()}}
}

// id is the span's ID, for children to name as their parent.
func (a active) id() int64 { return a.s.ID }

// req is the span's request ID.
func (a active) req() int64 { return a.s.Req }

// end closes the span and returns its duration.
func (a active) end() time.Duration {
	if a.t == nil {
		return 0
	}
	d := time.Since(a.start)
	a.s.End = a.s.Start + d.Nanoseconds()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
	return d
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
