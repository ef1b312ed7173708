package runstore

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"calgo/internal/obs"
)

// Filesystem store layout: DIR holds append-only JSON-lines segments
// (run-000001.jsonl, run-000002.jsonl, ...) plus an index sidecar
// (index.json). Every Put appends one record line to the active
// segment and fsyncs before returning, so an acknowledged record
// survives SIGKILL; the sidecar is advisory — it lets open skip
// re-scanning sealed segments, and a missing, corrupt or stale index
// is rebuilt by replaying the segments, skipping torn or corrupt lines
// exactly like the cald jobs journal.
const (
	segmentPrefix = "run-"
	segmentSuffix = ".jsonl"
	indexName     = "index.json"

	// IndexSchema versions the sidecar document.
	IndexSchema = "calgo.runstore-index/v1"

	// DefaultSegmentBytes rotates the active segment once it outgrows
	// this bound, keeping replay and compaction incremental.
	DefaultSegmentBytes = 4 << 20

	// indexEvery bounds sidecar staleness: the index is rewritten after
	// this many puts (and on rotation and Close).
	indexEvery = 64

	// compactMinGarbage is the floor below which open never compacts;
	// beyond it, compaction triggers when superseded records outnumber
	// live ones.
	compactMinGarbage = 8
)

// FSOptions tune OpenFS. The zero value is production-sane.
type FSOptions struct {
	// SegmentBytes rotates segments at this size (default
	// DefaultSegmentBytes).
	SegmentBytes int64
	// Metrics receives the runstore.* counters, gauges and histograms
	// (nil = unmetered).
	Metrics *obs.Metrics
	// Logger receives a structured line per write, replay and
	// compaction (nil = silent).
	Logger *slog.Logger
}

// FS is the durable filesystem Store.
type FS struct {
	dir  string
	opts FSOptions
	log  *slog.Logger
	now  func() time.Time

	mu     sync.Mutex
	closed bool
	active *os.File // append handle of the highest-numbered segment
	actSeg int      // its number
	actOff int64    // its current size

	byID       map[string]fsEntry
	order      []string // ids in first-put order
	superseded int      // overwritten entries still on disk
	seq        int      // highest numeric r-<n> id seen
	sincePut   int      // puts since the last index write

	// hookAfterCompactRename, when set (tests only), runs between the
	// compacted segment's rename and the old segments' removal — the
	// crash window the retention regression test snapshots.
	hookAfterCompactRename func()

	cPuts, cPutErrors, cReplayed     *obs.Counter
	cCorrupt, cIndexRebuilds         *obs.Counter
	cIndexWrites, cCompactions       *obs.Counter
	cExpired                         *obs.Counter
	hPutBytes, hPutNS                *obs.Histogram
	gRecords, gSegments, gSuperseded *obs.Gauge
	gRetained                        *obs.Gauge
}

// fsEntry locates one live record on disk plus the metadata the query
// layer filters on, so List never parses records that cannot match.
type fsEntry struct {
	Seg     int               `json:"seg"`
	Off     int64             `json:"off"`
	Len     int64             `json:"len"`
	Tool    string            `json:"tool,omitempty"`
	Kind    string            `json:"kind,omitempty"`
	Verdict string            `json:"verdict,omitempty"`
	TimeNS  int64             `json:"time_unix_ns"`
	Labels  map[string]string `json:"labels,omitempty"`
}

func (e fsEntry) match(id string, f Filter) bool {
	if f.ID != "" && id != f.ID {
		return false
	}
	if f.Tool != "" && e.Tool != f.Tool {
		return false
	}
	if f.Verdict != "" && e.Verdict != f.Verdict {
		return false
	}
	if f.Kind != "" && e.Kind != f.Kind {
		return false
	}
	for k, v := range f.Labels {
		if e.Labels[k] != v {
			return false
		}
	}
	if !f.Since.IsZero() && e.TimeNS < f.Since.UnixNano() {
		return false
	}
	if !f.Until.IsZero() && e.TimeNS >= f.Until.UnixNano() {
		return false
	}
	return true
}

// fsIndex is the sidecar document: per segment, the byte size the
// entries cover and every record's location. A segment whose on-disk
// size differs is re-scanned (from the covered size when it merely
// grew — the active segment between index writes — or from scratch
// when it shrank or the sidecar is unreadable).
type fsIndex struct {
	Schema   string           `json:"schema"`
	Segments []fsIndexSegment `json:"segments"`
}

type fsIndexSegment struct {
	Name    string            `json:"name"`
	Size    int64             `json:"size"`
	Entries []fsIndexSegEntry `json:"entries"`
}

type fsIndexSegEntry struct {
	ID string `json:"id"`
	fsEntry
}

// OpenFS opens (creating if absent) the store directory, replays the
// segments — via the index sidecar where it is fresh, by scanning
// where it is missing, stale or corrupt — and compacts when superseded
// records outnumber live ones. The returned store is ready for Put.
// A "scheme://" path is an error: the store is a local directory, and
// creating one named "http:" would answer from an empty store.
func OpenFS(dir string, opts FSOptions) (*FS, error) {
	if strings.Contains(dir, "://") {
		return nil, fmt.Errorf("runstore: %q is a URL; the run-history store is a local directory", dir)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
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
		dir: dir, opts: opts, log: log, now: time.Now,
		byID: make(map[string]fsEntry),

		cPuts:          m.Counter("runstore.puts"),
		cPutErrors:     m.Counter("runstore.put_errors"),
		cReplayed:      m.Counter("runstore.replayed"),
		cCorrupt:       m.Counter("runstore.corrupt_skipped"),
		cIndexRebuilds: m.Counter("runstore.index_rebuilds"),
		cIndexWrites:   m.Counter("runstore.index_writes"),
		cCompactions:   m.Counter("runstore.compactions"),
		cExpired:       m.Counter("runstore.expired"),
		hPutBytes:      m.Histogram("runstore.put_bytes"),
		hPutNS:         m.Histogram("runstore.put_ns"),
		gRecords:       m.Gauge("runstore.records"),
		gSegments:      m.Gauge("runstore.segments"),
		gSuperseded:    m.Gauge("runstore.superseded"),
		gRetained:      m.Gauge("runstore.retained"),
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	if s.superseded >= compactMinGarbage && s.superseded > len(s.byID) {
		if err := s.compactLocked(); err != nil {
			return nil, err
		}
	}
	s.writeIndexLocked()
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
		var n int
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		if _, err := fmt.Sscanf(name, segmentPrefix+"%d"+segmentSuffix, &n); err != nil || n <= 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

func (s *FS) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", segmentPrefix, n, segmentSuffix))
}

// replay rebuilds the in-memory map from the segments, trusting the
// index sidecar for byte ranges it provably covers and scanning the
// rest. Newest occurrence of an ID wins, exactly as compaction and
// upsert-by-append require.
func (s *FS) replay() error {
	segs, err := s.segments()
	if err != nil {
		return err
	}
	idx := s.loadIndex()
	indexed := make(map[int]fsIndexSegment)
	if idx != nil {
		for _, seg := range idx.Segments {
			var n int
			if _, err := fmt.Sscanf(seg.Name, segmentPrefix+"%d"+segmentSuffix, &n); err == nil {
				indexed[n] = seg
			}
		}
	}
	start := s.now()
	scanned, fromIndex := 0, 0
	for _, n := range segs {
		size := int64(0)
		if fi, err := os.Stat(s.segPath(n)); err == nil {
			size = fi.Size()
		}
		seg, ok := indexed[n]
		switch {
		case ok && seg.Size == size:
			// Fresh: trust the sidecar, no scan.
			for _, e := range seg.Entries {
				s.admit(e.ID, e.fsEntry)
				fromIndex++
			}
			continue
		case ok && seg.Size < size:
			// The segment grew past the sidecar (puts since the last index
			// write): trust the covered prefix, scan the tail.
			for _, e := range seg.Entries {
				s.admit(e.ID, e.fsEntry)
				fromIndex++
			}
			sc, err := s.scanSegment(n, seg.Size)
			if err != nil {
				return err
			}
			scanned += sc
		default:
			// Unindexed, shrunk, or unreadable sidecar: full rescan.
			if ok {
				s.cIndexRebuilds.Inc()
				s.log.Warn("runstore: index stale for segment, rescanning",
					"segment", s.segPath(n), "indexed_bytes", seg.Size, "actual_bytes", size)
			}
			sc, err := s.scanSegment(n, 0)
			if err != nil {
				return err
			}
			scanned += sc
		}
	}
	if idx == nil && len(segs) > 0 {
		s.cIndexRebuilds.Inc()
	}
	if n := int64(len(s.byID)); n > 0 || scanned > 0 {
		s.cReplayed.Add(n)
		s.log.Info("runstore: replayed",
			"dir", s.dir, "records", len(s.byID), "superseded", s.superseded,
			"segments", len(segs), "scanned", scanned, "from_index", fromIndex,
			"dur", s.now().Sub(start))
	}
	return nil
}

// admit folds one on-disk occurrence into the live map: later
// occurrences (higher segment, then offset) supersede earlier ones.
func (s *FS) admit(id string, e fsEntry) {
	if id == "" {
		return
	}
	if old, ok := s.byID[id]; ok {
		if e.Seg < old.Seg || (e.Seg == old.Seg && e.Off < old.Off) {
			s.superseded++ // e is the older copy
			return
		}
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
	if id == "" {
		return
	}
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
	var n int
	if _, err := fmt.Sscanf(id, "r-%d", &n); err == nil && n > s.seq {
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

// scanSegment replays segment n from byte offset off, skipping corrupt
// lines (the torn tail of a crash, or an interior line damaged on
// disk) — a line either parses or contributes nothing.
func (s *FS) scanSegment(n int, off int64) (int, error) {
	f, err := os.Open(s.segPath(n))
	if err != nil {
		return 0, fmt.Errorf("runstore: %w", err)
	}
	defer f.Close()
	if off > 0 {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return 0, fmt.Errorf("runstore: %w", err)
		}
	}
	admitted := 0
	r := bufio.NewReaderSize(f, 64<<10)
	pos := off
	for {
		line, err := r.ReadBytes('\n')
		n0 := int64(len(line))
		if len(line) > 0 {
			var rec Record
			if jerr := json.Unmarshal(line, &rec); jerr != nil || rec.ID == "" {
				s.cCorrupt.Inc()
				s.log.Warn("runstore: skipping corrupt line",
					"segment", s.segPath(n), "offset", pos, "bytes", n0)
			} else if rec.Deleted {
				s.admitTombstone(rec.ID)
			} else {
				s.admit(rec.ID, fsEntry{
					Seg: n, Off: pos, Len: n0,
					Tool: rec.Tool, Kind: rec.Kind, Verdict: rec.Verdict,
					TimeNS: rec.TimeNS, Labels: rec.Labels,
				})
				admitted++
			}
		}
		pos += n0
		if err == io.EOF {
			return admitted, nil
		}
		if err != nil {
			return admitted, fmt.Errorf("runstore: %w", err)
		}
	}
}

// loadIndex reads the sidecar; nil when missing or unusable.
func (s *FS) loadIndex() *fsIndex {
	b, err := os.ReadFile(filepath.Join(s.dir, indexName))
	if err != nil {
		return nil
	}
	var idx fsIndex
	if err := json.Unmarshal(b, &idx); err != nil || idx.Schema != IndexSchema {
		s.log.Warn("runstore: unreadable index sidecar, will rebuild", "err", err)
		return nil
	}
	return &idx
}

// openActive opens (creating if needed) the highest-numbered segment
// for appending.
func (s *FS) openActive() error {
	segs, err := s.segments()
	if err != nil {
		return err
	}
	n := 1
	if len(segs) > 0 {
		n = segs[len(segs)-1]
	}
	f, err := os.OpenFile(s.segPath(n), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	off, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("runstore: %w", err)
	}
	s.active, s.actSeg, s.actOff = f, n, off
	return nil
}

// Put upserts rec durably: one JSON line appended to the active
// segment and fsynced before returning. An empty ID gets the next
// "r-<n>"; an existing ID is superseded (replay keeps the newest
// occurrence).
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
	line, err := json.Marshal(rec)
	if err != nil {
		s.cPutErrors.Inc()
		return fmt.Errorf("runstore: encoding record: %w", err)
	}
	line = append(line, '\n')
	if s.actOff > 0 && s.actOff+int64(len(line)) > s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			s.cPutErrors.Inc()
			return err
		}
	}
	if _, err := s.active.Write(line); err != nil {
		s.cPutErrors.Inc()
		return fmt.Errorf("runstore: appending record: %w", err)
	}
	if err := s.active.Sync(); err != nil {
		s.cPutErrors.Inc()
		return fmt.Errorf("runstore: syncing segment: %w", err)
	}
	s.admit(rec.ID, fsEntry{
		Seg: s.actSeg, Off: s.actOff, Len: int64(len(line)),
		Tool: rec.Tool, Kind: rec.Kind, Verdict: rec.Verdict,
		TimeNS: rec.TimeNS, Labels: rec.Labels,
	})
	s.actOff += int64(len(line))
	s.sincePut++
	if s.sincePut >= indexEvery {
		s.writeIndexLocked()
	}
	s.gaugesLocked()
	dur := s.now().Sub(start)
	s.cPuts.Inc()
	if s.hPutBytes != nil {
		s.hPutBytes.Observe(int64(len(line)))
	}
	if s.hPutNS != nil {
		s.hPutNS.Observe(dur.Nanoseconds())
	}
	s.log.Info("runstore: put",
		"id", rec.ID, "tool", rec.Tool, "kind", rec.Kind, "verdict", rec.Verdict,
		"bytes", len(line), "segment", s.actSeg, "dur", dur)
	return nil
}

// rotateLocked seals the active segment (flushing the sidecar so the
// sealed segment is never re-scanned) and starts the next one.
func (s *FS) rotateLocked() error {
	s.writeIndexLocked()
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("runstore: sealing segment: %w", err)
	}
	n := s.actSeg + 1
	f, err := os.OpenFile(s.segPath(n), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: opening segment: %w", err)
	}
	s.active, s.actSeg, s.actOff = f, n, 0
	s.log.Info("runstore: rotated segment", "segment", n)
	return nil
}

// writeIndexLocked rewrites the sidecar atomically (tmp + rename). A
// failure is logged, never fatal: the sidecar is an optimization, the
// segments are the truth.
func (s *FS) writeIndexLocked() {
	bySeg := make(map[int]*fsIndexSegment)
	var segNums []int
	for _, id := range s.order {
		e, ok := s.byID[id]
		if !ok {
			continue
		}
		seg := bySeg[e.Seg]
		if seg == nil {
			seg = &fsIndexSegment{Name: filepath.Base(s.segPath(e.Seg))}
			bySeg[e.Seg] = seg
			segNums = append(segNums, e.Seg)
		}
		seg.Entries = append(seg.Entries, fsIndexSegEntry{ID: id, fsEntry: e})
	}
	// The covered size is the actual on-disk size, so replay can trust
	// an unchanged segment wholesale (superseded and corrupt bytes
	// included — they contribute nothing on a re-scan anyway).
	for _, n := range segNums {
		if fi, err := os.Stat(s.segPath(n)); err == nil {
			size := fi.Size()
			if n == s.actSeg {
				size = s.actOff
			}
			bySeg[n].Size = size
		}
	}
	sort.Ints(segNums)
	idx := fsIndex{Schema: IndexSchema}
	for _, n := range segNums {
		idx.Segments = append(idx.Segments, *bySeg[n])
	}
	b, err := json.Marshal(idx)
	if err != nil {
		s.log.Warn("runstore: encoding index", "err", err)
		return
	}
	tmp := filepath.Join(s.dir, indexName+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		s.log.Warn("runstore: writing index", "err", err)
		return
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, indexName)); err != nil {
		s.log.Warn("runstore: publishing index", "err", err)
		return
	}
	s.sincePut = 0
	s.cIndexWrites.Inc()
}

// compactLocked rewrites every live record into a fresh segment
// numbered past all existing ones, then removes the old segments (and
// with them every superseded copy and tombstone). Crash-safe by
// ordering: the compacted segment is completed and fsynced before any
// old segment is removed; replay's newest-occurrence-wins rule means a
// crash between those steps merely leaves harmless duplicates, and
// tombstoned records stay dead because their tombstones still sit in
// the not-yet-removed old segments while the compacted segment simply
// omits them. The active append handle is sealed first and reopened on
// the compacted segment, so runtime sweeps (Retain) can compact too.
func (s *FS) compactLocked() error {
	start := s.now()
	if s.active != nil {
		if err := s.active.Close(); err != nil {
			return fmt.Errorf("runstore: sealing segment for compaction: %w", err)
		}
		s.active = nil
	}
	segs, err := s.segments()
	if err != nil {
		return err
	}
	next := 1
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	tmp := s.segPath(next) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: compacting: %w", err)
	}
	var (
		off     int64
		rewrote = make(map[string]fsEntry, len(s.byID))
		bytes   int64
	)
	for _, id := range s.order {
		e, ok := s.byID[id]
		if !ok {
			continue
		}
		line, err := s.readAt(e)
		if err != nil {
			f.Close()
			return err
		}
		if _, err := f.Write(line); err != nil {
			f.Close()
			return fmt.Errorf("runstore: compacting: %w", err)
		}
		e2 := e
		e2.Seg, e2.Off, e2.Len = next, off, int64(len(line))
		rewrote[id] = e2
		off += int64(len(line))
		bytes += int64(len(line))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("runstore: compacting: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("runstore: compacting: %w", err)
	}
	if err := os.Rename(tmp, s.segPath(next)); err != nil {
		return fmt.Errorf("runstore: compacting: %w", err)
	}
	if s.hookAfterCompactRename != nil {
		s.hookAfterCompactRename()
	}
	for _, n := range segs {
		_ = os.Remove(s.segPath(n))
	}
	for id, e := range rewrote {
		s.byID[id] = e
	}
	dropped := s.superseded
	s.superseded = 0
	s.cCompactions.Inc()
	s.log.Info("runstore: compacted",
		"dir", s.dir, "records", len(s.byID), "dropped", dropped,
		"bytes", bytes, "dur", s.now().Sub(start))
	return s.openActive()
}

// readAt fetches one record's raw line.
func (s *FS) readAt(e fsEntry) ([]byte, error) {
	f, err := os.Open(s.segPath(e.Seg))
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	defer f.Close()
	buf := make([]byte, e.Len)
	if _, err := f.ReadAt(buf, e.Off); err != nil {
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
	type cand struct {
		id string
		e  fsEntry
	}
	var matched []cand
	for _, id := range s.order {
		e, ok := s.byID[id]
		if !ok || !e.match(id, f) {
			continue
		}
		matched = append(matched, cand{id, e})
	}
	sort.SliceStable(matched, func(i, j int) bool { return matched[i].e.TimeNS < matched[j].e.TimeNS })
	if f.Limit > 0 && len(matched) > f.Limit {
		matched = matched[len(matched)-f.Limit:]
	}
	out := make([]*Record, 0, len(matched))
	for i, c := range matched {
		if i%32 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rec, err := s.materializeLocked(c.e)
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
			metas = append(metas, retMeta{id: id, kind: e.Kind, timeNS: e.TimeNS})
		}
	}
	victims := pol.expire(metas, s.now())
	if len(victims) == 0 {
		if s.gRetained != nil {
			s.gRetained.Set(int64(len(s.byID)))
		}
		return 0, nil
	}
	var buf []byte
	dead := make(map[string]bool, len(victims))
	for _, id := range victims {
		line, err := json.Marshal(Record{Schema: RecordSchema, ID: id, Deleted: true})
		if err != nil {
			return 0, fmt.Errorf("runstore: encoding tombstone: %w", err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		dead[id] = true
	}
	if _, err := s.active.Write(buf); err != nil {
		return 0, fmt.Errorf("runstore: appending tombstones: %w", err)
	}
	if err := s.active.Sync(); err != nil {
		return 0, fmt.Errorf("runstore: syncing tombstones: %w", err)
	}
	s.actOff += int64(len(buf))
	for _, id := range victims {
		delete(s.byID, id)
	}
	s.dropFromOrder(dead)
	s.superseded += 2 * len(victims) // each dead copy plus its tombstone
	if s.cExpired != nil {
		s.cExpired.Add(int64(len(victims)))
	}
	if s.superseded >= compactMinGarbage && s.superseded > len(s.byID) {
		if err := s.compactLocked(); err != nil {
			return len(victims), err
		}
	}
	s.writeIndexLocked()
	s.gaugesLocked()
	if s.gRetained != nil {
		s.gRetained.Set(int64(len(s.byID)))
	}
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

// Close flushes the index sidecar and releases the active segment.
func (s *FS) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.writeIndexLocked()
	if s.active != nil {
		err := s.active.Close()
		s.active = nil
		return err
	}
	return nil
}

// gaugesLocked refreshes the store-health gauges.
func (s *FS) gaugesLocked() {
	if s.gRecords != nil {
		s.gRecords.Set(int64(len(s.byID)))
	}
	if s.gSegments != nil {
		s.gSegments.Set(int64(s.actSeg))
	}
	if s.gSuperseded != nil {
		s.gSuperseded.Set(int64(s.superseded))
	}
}

// Dir returns the store's directory.
func (s *FS) Dir() string { return s.dir }
