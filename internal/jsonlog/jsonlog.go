// Package jsonlog is the durable append-only JSON-lines log under the
// cald job journal and the filesystem run-history store: one JSON value
// per line, fsynced before an append returns, replayed line by line on
// open and compacted by rewriting the whole file.
//
// A crash can leave only the final line torn, because every append ends
// with a newline and returns after fsync. Replay therefore treats the
// bytes after the last newline as a write that was never acknowledged:
// it reports them instead of handing them on, and Open cuts them off so
// the next append starts its own line instead of fusing with them.
// Damage inside a newline-terminated line is the caller's to detect: a
// line that does not decode contributes nothing.
package jsonlog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
)

// Replay hands fn every newline-terminated line of the file at path,
// newline included, with its byte offset. It returns the offset just
// past the last newline, which is where Open should resume appending,
// and the count of torn bytes after it. A missing file replays as
// empty.
func Replay(path string, fn func(off int64, line []byte)) (end, torn int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("jsonlog: replaying: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	for {
		line, err := r.ReadBytes('\n')
		switch {
		case err == io.EOF:
			return end, int64(len(line)), nil
		case err != nil:
			return end, 0, fmt.Errorf("jsonlog: replaying: %w", err)
		}
		fn(end, line)
		end += int64(len(line))
	}
}

// Log is an open append handle. It is not safe for concurrent use:
// callers serialize appends under their own lock.
type Log struct {
	f   *os.File
	enc *json.Encoder
	end int64 // the file's size: where the next Append starts
}

// Open opens (creating if absent) the log at path for appending,
// first truncating it to end, the offset Replay or WriteFile returned,
// so a torn tail never fuses with the next record.
func Open(path string, end int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jsonlog: %w", err)
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("jsonlog: cutting torn tail: %w", err)
	}
	l := &Log{f: f, end: end}
	l.enc = json.NewEncoder(counter{l})
	return l, nil
}

// counter forwards the encoder's writes to the file, advancing end by
// what reached it.
type counter struct{ l *Log }

func (c counter) Write(p []byte) (int, error) {
	n, err := c.l.f.Write(p)
	c.l.end += int64(n)
	return n, err
}

// Append encodes each value as one JSON line straight into the file
// and fsyncs once. It returns the offset of the first line and the
// byte count of all of them. On failure nothing stays appended: the
// partial write is cut, so it cannot fuse with the next record.
func (l *Log) Append(vs ...any) (off, n int64, err error) {
	off = l.end
	for _, v := range vs {
		if err = l.enc.Encode(v); err != nil {
			break
		}
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(off); terr == nil {
			l.end = off
		}
		return off, 0, fmt.Errorf("jsonlog: appending: %w", err)
	}
	return off, l.end - off, nil
}

// Close releases the append handle.
func (l *Log) Close() error { return l.f.Close() }

// WriteFile replaces the file at path with data atomically: it writes
// and fsyncs <path>.tmp, then renames it into place, so a crash leaves
// either the old file or the new one. A stale <path>.tmp left by an
// interrupted rewrite is overwritten.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("jsonlog: rewriting: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jsonlog: rewriting: %w", err)
	}
	return nil
}
