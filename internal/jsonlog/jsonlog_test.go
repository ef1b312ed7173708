package jsonlog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type line struct {
	off  int64
	text string
}

func replayAll(t *testing.T, path string) (lines []line, end, torn int64) {
	t.Helper()
	end, torn, err := Replay(path, func(off int64, b []byte) {
		lines = append(lines, line{off, string(b)})
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines, end, torn
}

func TestReplayOffsetsAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if lines, end, torn := replayAll(t, path); lines != nil || end != 0 || torn != 0 {
		t.Fatalf("missing file replayed %v end %d torn %d, want nothing", lines, end, torn)
	}
	// The second line is longer than Replay's read buffer.
	long := strings.Repeat("x", 100<<10)
	body := "a\n" + long + "\n\nccc"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	lines, end, torn := replayAll(t, path)
	want := []line{{0, "a\n"}, {2, long + "\n"}, {int64(3 + len(long)), "\n"}}
	if len(lines) != len(want) {
		t.Fatalf("replayed %d lines, want %d", len(lines), len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = {%d, %.10q}, want {%d, %.10q}", i, lines[i].off, lines[i].text, want[i].off, want[i].text)
		}
	}
	if end != int64(len(body)-3) || torn != 3 {
		t.Fatalf("end %d torn %d, want %d and 3", end, torn, len(body)-3)
	}
}

func TestOpenCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte(`{"a":1}`+"\n"+`{"b":`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, end, _ := replayAll(t, path)
	l, err := Open(path, end)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append(map[string]int{"c": 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	lines, _, torn := replayAll(t, path)
	if len(lines) != 2 || lines[1] != (line{8, `{"c":3}` + "\n"}) || torn != 0 {
		t.Fatalf("after append: %q torn %d, want the torn tail replaced by the new line", lines, torn)
	}
}

func TestAppendOffsetsMatchDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type rec struct {
		ID   string `json:"id"`
		Body string `json:"body,omitempty"`
	}
	batches := [][]any{
		{rec{ID: "r-1", Body: "<html> & more"}},
		{rec{ID: "r-2"}, rec{ID: "r-3", Body: "two lines, one sync"}},
	}
	var wantOff int64
	for _, vs := range batches {
		off, n, err := l.Append(vs...)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, v := range vs {
			b, _ := json.Marshal(v)
			want = append(append(want, b...), '\n')
		}
		disk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if off != wantOff || n != int64(len(want)) || string(disk[off:off+n]) != string(want) {
			t.Fatalf("Append = (%d, %d) over %q, want (%d, %d) over %q", off, n, disk, wantOff, len(want), want)
		}
		wantOff += n
	}
}

func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A rewrite interrupted before its rename left a longer temp file.
	if err := os.WriteFile(path+".tmp", []byte("stale partial rewrite\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new\n")); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "new\n" {
		t.Fatalf("file = %q (err %v), want %q", b, err, "new\n")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file still present (stat err %v)", err)
	}
}
