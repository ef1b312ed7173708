package jobs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// streamFrame is the calgo.stream/v1 wire shape the tests pin: a stream
// document whose verdict payload carries the status/display pair emitted
// by stream.Verdict.MarshalJSON.
type streamFrame struct {
	Schema  string        `json:"schema"`
	ID      string        `json:"id"`
	State   string        `json:"state"`
	Request StreamRequest `json:"request"`
	Verdict struct {
		Status    string `json:"status"`
		Display   string `json:"display"`
		AtEvent   int64  `json:"at_event"`
		Events    int64  `json:"events"`
		Shed      int64  `json:"shed"`
		HighWater int64  `json:"high_water"`
		Engine    string `json:"engine"`
		Final     bool   `json:"final"`
	} `json:"verdict"`
}

func newStreamServer(t *testing.T, cfg StreamConfig) (*StreamManager, *httptest.Server) {
	t.Helper()
	m := NewStreamManager(cfg)
	srv := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		srv.Close()
		m.Drain()
	})
	return m, srv
}

func openStream(t *testing.T, url string, req StreamRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/streams", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeFrame(t *testing.T, resp *http.Response) streamFrame {
	t.Helper()
	defer resp.Body.Close()
	var f streamFrame
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		t.Fatalf("decoding stream frame: %v", err)
	}
	return f
}

func postBatch(t *testing.T, url, id, batch string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/streams/"+id+"/events", "text/plain", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// queueViolationBatch: enq(1) then deq -> 7; event 3 (the deq response)
// makes the prefix non-linearizable.
const queueViolationBatch = `inv t1 E.enq 1
res t1 E.enq true
inv t1 E.deq ()
res t1 E.deq (true,7)
`

// TestStreamHTTPLifecycle: open -> feed a violating batch -> the verdict
// frame reports VIOLATION-at-event-3 -> close is terminal and final.
func TestStreamHTTPLifecycle(t *testing.T) {
	_, srv := newStreamServer(t, StreamConfig{})

	resp := openStream(t, srv.URL, StreamRequest{Spec: "queue"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open status = %d, want 201", resp.StatusCode)
	}
	f := decodeFrame(t, resp)
	if f.Schema != StreamSchema || f.ID == "" || f.State != StreamOpen {
		t.Fatalf("opened stream frame = %+v", f)
	}
	if f.Verdict.Status != "sat-so-far" || f.Verdict.Engine != "monitor:queue" {
		t.Fatalf("fresh stream verdict = %+v", f.Verdict)
	}

	resp = postBatch(t, srv.URL, f.ID, queueViolationBatch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed status = %d, want 200", resp.StatusCode)
	}
	f = decodeFrame(t, resp)
	if f.Verdict.Status != "violation" || f.Verdict.AtEvent != 3 {
		t.Fatalf("after violating batch: %+v", f.Verdict)
	}
	if !strings.HasPrefix(f.Verdict.Display, "VIOLATION-at-event-3") {
		t.Fatalf("display = %q", f.Verdict.Display)
	}

	resp, err := http.Post(srv.URL+"/streams/"+f.ID+"/close", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	f = decodeFrame(t, resp)
	if f.State != StreamClosed || !f.Verdict.Final || f.Verdict.Status != "violation" {
		t.Fatalf("closed frame = %+v", f)
	}

	// Feeding a closed stream is a 400, and the list still shows it.
	resp = postBatch(t, srv.URL, f.ID, queueViolationBatch)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("feed after close status = %d, want 400", resp.StatusCode)
	}
	r, err := http.Get(srv.URL + "/streams")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var all []streamFrame
	if err := json.NewDecoder(r.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].State != StreamClosed {
		t.Errorf("list = %+v, want one closed stream", all)
	}
}

// TestStreamHTTPWatchSSE: a watcher sees the violation frame pushed per
// ingested batch, then the channel terminates after close.
func TestStreamHTTPWatchSSE(t *testing.T) {
	_, srv := newStreamServer(t, StreamConfig{})
	f := decodeFrame(t, openStream(t, srv.URL, StreamRequest{Spec: "queue"}))

	watch, err := http.Get(srv.URL + "/streams/" + f.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	if ct := watch.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch content type = %q", ct)
	}

	frames := make(chan streamFrame, 8)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(watch.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var fr streamFrame
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &fr) == nil {
				frames <- fr
			}
		}
	}()

	// First SSE frame is the immediate snapshot.
	select {
	case fr := <-frames:
		if fr.Verdict.Status != "sat-so-far" {
			t.Fatalf("snapshot frame = %+v", fr.Verdict)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no snapshot frame")
	}

	postBatch(t, srv.URL, f.ID, queueViolationBatch).Body.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case fr, ok := <-frames:
			if !ok {
				t.Fatal("watch ended before the violation frame")
			}
			if fr.Verdict.Status == "violation" {
				if fr.Verdict.AtEvent != 3 {
					t.Fatalf("violation frame at_event = %d, want 3", fr.Verdict.AtEvent)
				}
				// Close ends the SSE stream after the terminal frame.
				resp, err := http.Post(srv.URL+"/streams/"+f.ID+"/close", "", nil)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				for {
					select {
					case _, ok := <-frames:
						if !ok {
							return
						}
					case <-deadline:
						t.Fatal("watch did not terminate after close")
					}
				}
			}
		case <-deadline:
			t.Fatal("violation frame never arrived")
		}
	}
}

// TestStreamHTTPOpenBound: the MaxStreams admission bound sheds with
// 429 + Retry-After; closing a stream frees the slot.
func TestStreamHTTPOpenBound(t *testing.T) {
	m, srv := newStreamServer(t, StreamConfig{MaxStreams: 1})
	f := decodeFrame(t, openStream(t, srv.URL, StreamRequest{Spec: "queue"}))

	resp := openStream(t, srv.URL, StreamRequest{Spec: "stack"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("open past bound status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if m.cShed.Value() != 1 {
		t.Errorf("streams.shed = %d, want 1", m.cShed.Value())
	}

	if _, err := m.Close(f.ID); err != nil {
		t.Fatal(err)
	}
	resp = openStream(t, srv.URL, StreamRequest{Spec: "stack"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open after close status = %d, want 201", resp.StatusCode)
	}
}

// TestStreamHTTPRequestErrors: bad spec / batch are 400s, unknown
// streams are 404s, and draining is a 503. An open body that still sends
// an engine member is decoded without it: the spec picks the path.
func TestStreamHTTPRequestErrors(t *testing.T) {
	m, srv := newStreamServer(t, StreamConfig{})

	resp := openStream(t, srv.URL, StreamRequest{Spec: "no-such-spec"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("open of an unknown spec: status = %d, want 400", resp.StatusCode)
	}

	for _, body := range []string{`{"spec":"queue","engine":"dfs"}`, `{"spec":"queue","engine":"warp"}`} {
		resp, err := http.Post(srv.URL+"/streams", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			resp.Body.Close()
			t.Fatalf("open %s: status = %d, want 201", body, resp.StatusCode)
		}
		if f := decodeFrame(t, resp); f.Verdict.Engine != "monitor:queue" {
			t.Errorf("open %s: engine %q, want monitor:queue", body, f.Verdict.Engine)
		}
	}

	f := decodeFrame(t, openStream(t, srv.URL, StreamRequest{Spec: "queue"}))
	resp = postBatch(t, srv.URL, f.ID, "inv t1 E.enq not-a-value garbage here\n")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch status = %d, want 400", resp.StatusCode)
	}

	resp = postBatch(t, srv.URL, "s999999", queueViolationBatch)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("feed unknown stream status = %d, want 404", resp.StatusCode)
	}

	m.Drain()
	resp = openStream(t, srv.URL, StreamRequest{Spec: "queue"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("open while draining status = %d, want 503", resp.StatusCode)
	}
}

// TestStreamHTTPPartialBatch: a batch whose tail event is ill-formed
// feeds its well-formed prefix and reports both the error and the
// advanced document.
func TestStreamHTTPPartialBatch(t *testing.T) {
	_, srv := newStreamServer(t, StreamConfig{})
	f := decodeFrame(t, openStream(t, srv.URL, StreamRequest{Spec: "queue"}))

	// Second res has no matching open invocation on t2: parseable, but
	// rejected by stream well-formedness validation mid-batch.
	batch := "inv t1 E.enq 1\nres t1 E.enq true\nres t2 E.deq (true,1)\n"
	resp := postBatch(t, srv.URL, f.ID, batch)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial batch status = %d, want 400", resp.StatusCode)
	}
	var out struct {
		Error string `json:"error"`
		streamFrame
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error == "" || out.Verdict.Events != 2 {
		t.Fatalf("partial batch response = %+v, want error + 2 fed events", out)
	}
}

// TestStreamHTTPUnparsableBatchFeedsNothing: a batch whose third line
// does not parse is refused whole with its batch:<line> diagnostic, and
// its two well-formed lines are not fed.
func TestStreamHTTPUnparsableBatchFeedsNothing(t *testing.T) {
	_, srv := newStreamServer(t, StreamConfig{})
	f := decodeFrame(t, openStream(t, srv.URL, StreamRequest{Spec: "queue"}))

	resp := postBatch(t, srv.URL, f.ID, "inv t1 E.enq 1\nres t1 E.enq true\ninv t1 E.deq\n")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "batch:3:") {
		t.Fatalf("unparsable batch: status %d, body %q; want 400 citing batch:3", resp.StatusCode, body)
	}
	r, err := http.Get(srv.URL + "/streams/" + f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeFrame(t, r); got.Verdict.Events != 0 {
		t.Errorf("after an unparsable batch the stream has %d events, want 0", got.Verdict.Events)
	}
}

// TestStreamIdleReap: a stream with no traffic is closed by the idle
// timer, its final verdict retained.
func TestStreamIdleReap(t *testing.T) {
	m, srv := newStreamServer(t, StreamConfig{IdleTimeout: 30 * time.Millisecond})
	f := decodeFrame(t, openStream(t, srv.URL, StreamRequest{Spec: "queue"}))

	deadline := time.Now().Add(5 * time.Second)
	for {
		doc, ok := m.Get(f.ID)
		if !ok {
			t.Fatal("stream evicted instead of closed")
		}
		if doc.State == StreamClosed {
			if !doc.Verdict.Final {
				t.Fatalf("idle-reaped verdict not final: %+v", doc.Verdict)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("idle stream never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
