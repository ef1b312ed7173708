package runstore

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"calgo/internal/jsonlog"
	"calgo/internal/obs"
)

// Filesystem store layout: DIR holds one append-only JSON-lines
// segment, run-%06d.jsonl, kept by internal/jsonlog like the cald jobs
// journal. Every Put appends one record line and fsyncs before
// returning, so an acknowledged record survives SIGKILL. Open replays
// the segment, keeping each record's metadata in memory and its body on
// disk; a corrupt line is skipped and a torn tail is cut, both counted.
// Compaction writes the live records into the next segment number and
// only then removes the older ones, so a directory holds more than one
// segment only inside a compaction's crash window (or when an earlier
// version rotated segments); open compacts whenever it finds more than
// one.
const (
	segmentPrefix = "run-"
	segmentSuffix = ".jsonl"

	// compactMinGarbage is the floor below which the store never
	// compacts for garbage; beyond it, compaction triggers when
	// superseded records outnumber live ones.
	compactMinGarbage = 8
)

// FSOptions tune OpenFS. The zero value is production-sane.
type FSOptions struct {
	// Metrics receives the runstore.* counters, gauges and histograms
	// (nil = unmetered).
	Metrics *obs.Metrics
	// Logger receives a structured line per write, replay and
	// compaction (nil = silent).
	Logger *slog.Logger
}

// FS is the durable filesystem Store.
type FS struct {
	dir string
	log *slog.Logger
	now func() time.Time

	mu     sync.Mutex
	closed bool
	seg    int          // number of the segment Put appends to
	out    *jsonlog.Log // its append handle

	byID       map[string]fsEntry
	order      []string // ids in first-put order
	superseded int      // overwritten entries still on disk
	seq        int      // highest numeric r-<n> id seen

	// hookAfterCompactRename, when set (tests only), runs between the
	// compacted segment's rename and the old segments' removal — the
	// crash window the retention regression test snapshots.
	hookAfterCompactRename func()

	cPuts, cPutErrors, cReplayed     *obs.Counter
	cCorrupt, cCompactions, cExpired *obs.Counter
	hPutBytes, hPutNS                *obs.Histogram
	gRecords, gSuperseded, gRetained *obs.Gauge
}

// fsEntry locates one live record's line on disk. meta is the record
// without its report or bench body, so List filters and retention
// selects without reading records that cannot match.
type fsEntry struct {
	seg    int
	off, n int64
	meta   *Record
}

// recordMeta decodes a segment line without its body: replay needs
// only the metadata, and skipping the report or bench document keeps
// open cheap.
type recordMeta struct {
	Record
	Report skipValue `json:"report,omitempty"`
	Bench  skipValue `json:"bench,omitempty"`
}

// skipValue consumes a JSON value without decoding it.
type skipValue struct{}

func (*skipValue) UnmarshalJSON([]byte) error { return nil }

// OpenFS opens (creating if absent) the store directory, replays its
// segments and compacts when it finds more than one, or when
// superseded records outnumber live ones. The returned store is ready
// for Put. A "scheme://" path is an error: the store is a local
// directory, and creating one named "http:" would answer from an empty
// store.
func OpenFS(dir string, opts FSOptions) (*FS, error) {
	if strings.Contains(dir, "://") {
		return nil, fmt.Errorf("runstore: %q is a URL; the run-history store is a local directory", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	m := opts.Metrics
	if m == nil {
		m = obs.NewMetrics() // private registry: instruments stay non-nil
	}
	s := &FS{
		dir: dir, log: log, now: time.Now,
		byID: make(map[string]fsEntry),

		cPuts:        m.Counter("runstore.puts"),
		cPutErrors:   m.Counter("runstore.put_errors"),
		cReplayed:    m.Counter("runstore.replayed"),
		cCorrupt:     m.Counter("runstore.corrupt_skipped"),
		cCompactions: m.Counter("runstore.compactions"),
		cExpired:     m.Counter("runstore.expired"),
		hPutBytes:    m.Histogram("runstore.put_bytes"),
		hPutNS:       m.Histogram("runstore.put_ns"),
		gRecords:     m.Gauge("runstore.records"),
		gSuperseded:  m.Gauge("runstore.superseded"),
		gRetained:    m.Gauge("runstore.retained"),
	}
	segs, err := s.segments()
	if err != nil {
		return nil, err
	}
	start := s.now()
	s.seg = 1
	var end int64
	for _, n := range segs {
		if end, err = s.replaySegment(n); err != nil {
			return nil, err
		}
		s.seg = n
	}
	if len(segs) > 0 {
		s.cReplayed.Add(int64(len(s.byID)))
		s.log.Info("runstore: replayed",
			"dir", s.dir, "records", len(s.byID), "superseded", s.superseded,
			"segments", len(segs), "dur", s.now().Sub(start))
	}
	// An index sidecar left by an earlier version goes stale at the
	// first Put; nothing reads it.
	_ = os.Remove(filepath.Join(dir, "index.json"))
	if len(segs) > 1 || s.garbageDominates() {
		if err := s.compactLocked(); err != nil {
			return nil, err
		}
	} else if s.out, err = jsonlog.Open(s.segPath(s.seg), end); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	s.gaugesLocked()
	return s, nil
}

// segments lists the segment numbers present in the directory,
// ascending.
func (s *FS) segments() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var segs []int
	for _, e := range entries {
		digits, isSeg := strings.CutPrefix(e.Name(), segmentPrefix)
		digits, hasSuffix := strings.CutSuffix(digits, segmentSuffix)
		n, err := strconv.Atoi(digits)
		if e.Type().IsRegular() && isSeg && hasSuffix && err == nil && n > 0 {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

func (s *FS) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", segmentPrefix, n, segmentSuffix))
}

// replaySegment folds segment n into the live map and returns the
// offset past its last whole line. A line either decodes or
// contributes nothing; the newest occurrence of an ID wins, exactly as
// compaction and upsert-by-append require.
func (s *FS) replaySegment(n int) (int64, error) {
	path := s.segPath(n)
	end, torn, err := jsonlog.Replay(path, func(off int64, line []byte) {
		meta := new(recordMeta)
		switch {
		case json.Unmarshal(line, meta) != nil || meta.ID == "":
			s.cCorrupt.Inc()
			s.log.Warn("runstore: skipping corrupt line",
				"segment", path, "offset", off, "bytes", len(line))
		case meta.Deleted:
			s.admitTombstone(meta.ID)
		default:
			s.admit(fsEntry{seg: n, off: off, n: int64(len(line)), meta: &meta.Record})
		}
	})
	if err != nil {
		return 0, fmt.Errorf("runstore: %w", err)
	}
	if torn > 0 {
		s.cCorrupt.Inc()
		s.log.Warn("runstore: cutting torn tail",
			"segment", path, "offset", end, "bytes", torn)
	}
	return end, nil
}

// admit folds one on-disk occurrence into the live map. Occurrences
// arrive in disk order (segment, then offset), so a later one
// supersedes an earlier one.
func (s *FS) admit(e fsEntry) {
	id := e.meta.ID
	if _, ok := s.byID[id]; ok {
		s.superseded++
	} else {
		s.order = append(s.order, id)
	}
	s.byID[id] = e
	s.bumpSeq(id)
}

// admitTombstone folds one on-disk tombstone into the live map: the
// record (when present) dies, and both its last copy and the tombstone
// line itself become compactable garbage.
func (s *FS) admitTombstone(id string) {
	if _, ok := s.byID[id]; ok {
		delete(s.byID, id)
		s.dropFromOrder(map[string]bool{id: true})
		s.superseded += 2
	} else {
		s.superseded++ // orphan tombstone (its record was already compacted away)
	}
	// Keep the ID sequence monotonic past dead records so a later Put
	// never reuses a tombstoned "r-<n>".
	s.bumpSeq(id)
}

func (s *FS) bumpSeq(id string) {
	digits, ok := strings.CutPrefix(id, "r-")
	if n, err := strconv.Atoi(digits); ok && err == nil && n > s.seq {
		s.seq = n
	}
}

// dropFromOrder removes the given ids from the first-put order slice,
// so a future Put of a dead id re-appends exactly once.
func (s *FS) dropFromOrder(dead map[string]bool) {
	kept := s.order[:0]
	for _, id := range s.order {
		if !dead[id] {
			kept = append(kept, id)
		}
	}
	s.order = kept
}

// garbageDominates reports whether superseded copies and tombstones
// are worth a compaction.
func (s *FS) garbageDominates() bool {
	return s.superseded >= compactMinGarbage && s.superseded > len(s.byID)
}

// Put upserts rec durably: one JSON line appended to the segment and
// fsynced before returning. An empty ID gets the next "r-<n>"; an
// existing ID is superseded (replay keeps the newest occurrence).
func (s *FS) Put(rec *Record) error {
	if rec == nil {
		return fmt.Errorf("runstore: nil record")
	}
	start := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if rec.ID == "" {
		s.seq++
		rec.ID = fmt.Sprintf("r-%d", s.seq)
	}
	rec.normalize(s.now)
	off, n, err := s.out.Append(rec)
	if err != nil {
		s.cPutErrors.Inc()
		return fmt.Errorf("runstore: appending record: %w", err)
	}
	meta := *rec
	meta.Report, meta.Bench = nil, nil
	s.admit(fsEntry{seg: s.seg, off: off, n: n, meta: &meta})
	s.gaugesLocked()
	dur := s.now().Sub(start)
	s.cPuts.Inc()
	s.hPutBytes.Observe(n)
	s.hPutNS.Observe(dur.Nanoseconds())
	s.log.Info("runstore: put",
		"id", rec.ID, "tool", rec.Tool, "kind", rec.Kind, "verdict", rec.Verdict,
		"bytes", n, "segment", s.seg, "dur", dur)
	return nil
}

// compactLocked rewrites every live record into a fresh segment
// numbered past all existing ones, then removes the old segments (and
// with them every superseded copy and tombstone). Crash-safe by
// ordering: the compacted segment is complete and fsynced before any
// old segment is removed; replay's newest-occurrence-wins rule means a
// crash between those steps merely leaves harmless duplicates, and
// tombstoned records stay dead because their tombstones still sit in
// the not-yet-removed old segments while the compacted segment simply
// omits them. Put moves to the compacted segment only once it is open,
// so a failed compaction leaves the store appending where it was.
func (s *FS) compactLocked() error {
	start := s.now()
	segs, err := s.segments()
	if err != nil {
		return err
	}
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	var data []byte
	moved := make(map[string]fsEntry, len(s.byID))
	for _, id := range s.order {
		e, ok := s.byID[id]
		if !ok {
			continue
		}
		line, err := s.readAt(e)
		if err != nil {
			return err
		}
		moved[id] = fsEntry{seg: next, off: int64(len(data)), n: e.n, meta: e.meta}
		data = append(data, line...)
	}
	path := s.segPath(next)
	if err := jsonlog.WriteFile(path, data); err != nil {
		return fmt.Errorf("runstore: compacting: %w", err)
	}
	if s.hookAfterCompactRename != nil {
		s.hookAfterCompactRename()
	}
	out, err := jsonlog.Open(path, int64(len(data)))
	if err != nil {
		os.Remove(path) // keep appending to the old segment, which replays first
		return fmt.Errorf("runstore: compacting: %w", err)
	}
	if s.out != nil {
		s.out.Close() // every append was fsynced; nothing is left to flush
	}
	s.out, s.seg = out, next
	for _, n := range segs {
		_ = os.Remove(s.segPath(n))
	}
	for id, e := range moved {
		s.byID[id] = e
	}
	dropped := s.superseded
	s.superseded = 0
	s.cCompactions.Inc()
	s.log.Info("runstore: compacted",
		"dir", s.dir, "records", len(s.byID), "dropped", dropped,
		"bytes", len(data), "dur", s.now().Sub(start))
	return nil
}

// readAt fetches one record's raw line.
func (s *FS) readAt(e fsEntry) ([]byte, error) {
	f, err := os.Open(s.segPath(e.seg))
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	defer f.Close()
	buf := make([]byte, e.n)
	if _, err := f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("runstore: reading record: %w", err)
	}
	return buf, nil
}

// Get fetches a record by ID from disk.
func (s *FS) Get(id string) (*Record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	e, ok := s.byID[id]
	if !ok {
		return nil, false, nil
	}
	rec, err := s.materializeLocked(e)
	if err != nil {
		return nil, false, err
	}
	return rec, true, nil
}

func (s *FS) materializeLocked(e fsEntry) (*Record, error) {
	line, err := s.readAt(e)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("runstore: decoding record: %w", err)
	}
	return &rec, nil
}

// List returns the matching records in ascending time order, newest
// Limit kept. Filtering runs on the in-memory metadata; only the
// matches are read from disk.
func (s *FS) List(f Filter) ([]*Record, error) {
	return s.ListContext(context.Background(), f)
}

// ListContext is List honoring cancellation: the context is checked
// between disk reads, so a cancelled ops request stops paying I/O for
// an answer nobody will read.
func (s *FS) ListContext(ctx context.Context, f Filter) ([]*Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var matched []fsEntry
	for _, id := range s.order {
		if e, ok := s.byID[id]; ok && f.Match(e.meta) {
			matched = append(matched, e)
		}
	}
	sort.SliceStable(matched, func(i, j int) bool { return matched[i].meta.TimeNS < matched[j].meta.TimeNS })
	if f.Limit > 0 && len(matched) > f.Limit {
		matched = matched[len(matched)-f.Limit:]
	}
	out := make([]*Record, 0, len(matched))
	for i, e := range matched {
		if i%32 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rec, err := s.materializeLocked(e)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Retain applies a retention policy: expired records get fsynced
// tombstone lines (one batch, one sync — an acknowledged sweep survives
// SIGKILL), and when the resulting garbage dominates the live set the
// store compacts. Returns how many records the sweep expired.
func (s *FS) Retain(pol Retention) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	metas := make([]retMeta, 0, len(s.byID))
	for _, id := range s.order {
		if e, ok := s.byID[id]; ok {
			metas = append(metas, retMeta{id: id, kind: e.meta.Kind, timeNS: e.meta.TimeNS})
		}
	}
	victims := pol.expire(metas, s.now())
	if len(victims) == 0 {
		s.gRetained.Set(int64(len(s.byID)))
		return 0, nil
	}
	tombstones := make([]any, len(victims))
	dead := make(map[string]bool, len(victims))
	for i, id := range victims {
		tombstones[i] = Record{Schema: RecordSchema, ID: id, Deleted: true}
		dead[id] = true
	}
	if _, _, err := s.out.Append(tombstones...); err != nil {
		return 0, fmt.Errorf("runstore: appending tombstones: %w", err)
	}
	for _, id := range victims {
		delete(s.byID, id)
	}
	s.dropFromOrder(dead)
	s.superseded += 2 * len(victims) // each dead copy plus its tombstone
	s.cExpired.Add(int64(len(victims)))
	if s.garbageDominates() {
		if err := s.compactLocked(); err != nil {
			return len(victims), err
		}
	}
	s.gaugesLocked()
	s.gRetained.Set(int64(len(s.byID)))
	s.log.Info("runstore: retention sweep",
		"dir", s.dir, "expired", len(victims), "retained", len(s.byID), "policy", pol.String())
	return len(victims), nil
}

// Len is the number of live records.
func (s *FS) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Close releases the segment's append handle.
func (s *FS) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.out.Close()
}

// gaugesLocked refreshes the store-health gauges.
func (s *FS) gaugesLocked() {
	s.gRecords.Set(int64(len(s.byID)))
	s.gSuperseded.Set(int64(s.superseded))
}
