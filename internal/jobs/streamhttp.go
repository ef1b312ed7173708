package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Handler returns the stream API, mountable on the ops mux (cald mounts
// it at /streams):
//
//	POST /streams             open a stream; 201 + stream doc, 400 bad
//	                          request, 429 + Retry-After at the
//	                          open-stream bound or rate limit, 503 when
//	                          draining
//	GET  /streams             list all known streams
//	GET  /streams/{id}        current verdict frame; ?watch=1 streams a
//	                          frame per ingested batch as Server-Sent
//	                          Events until the stream closes
//	POST /streams/{id}/events feed a batch (line-oriented history
//	                          interchange format in the body); responds
//	                          with the updated verdict frame
//	POST /streams/{id}/close  run end-of-stream checks; final frame
//	POST /streams/{id}/cancel abort fallback re-checks and close
func (m *StreamManager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /streams", m.handleOpen)
	mux.HandleFunc("GET /streams", m.handleList)
	mux.HandleFunc("GET /streams/{id}", m.handleGet)
	mux.HandleFunc("POST /streams/{id}/events", m.handleEvents)
	mux.HandleFunc("POST /streams/{id}/close", m.handleClose)
	mux.HandleFunc("POST /streams/{id}/cancel", m.handleCancel)
	return mux
}

// streamRetry tells a client whose stream a drain refused what to do.
const streamRetry = "re-open the stream against the restarted instance"

func (m *StreamManager) handleOpen(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 64<<10)
	var req StreamRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	doc, err := m.Open(clientID(r), req)
	if err != nil {
		writeError(w, err, "stream", streamRetry)
		return
	}
	writeJSON(w, http.StatusCreated, doc)
}

func (m *StreamManager) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, m.List())
}

func (m *StreamManager) handleGet(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("watch") != "" {
		watchSSE(w, r, "stream", m.Watch, m.Stopping())
		return
	}
	doc, ok := m.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such stream", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (m *StreamManager) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	r.Body = http.MaxBytesReader(w, r.Body, int64(m.cfg.MaxBatchBytes)+4<<10)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("event batch exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	doc, err := m.Feed(id, string(body))
	if err != nil {
		// A mid-batch transport error still fed a prefix; report the
		// error but include the document so the client sees how far the
		// stream advanced.
		if doc.ID != "" {
			writeJSON(w, http.StatusBadRequest, struct {
				Error string `json:"error"`
				StreamDoc
			}{Error: err.Error(), StreamDoc: doc})
			return
		}
		writeError(w, err, "stream", streamRetry)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (m *StreamManager) handleClose(w http.ResponseWriter, r *http.Request) {
	doc, err := m.Close(r.PathValue("id"))
	if err != nil {
		writeError(w, err, "stream", streamRetry)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

func (m *StreamManager) handleCancel(w http.ResponseWriter, r *http.Request) {
	doc, err := m.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err, "stream", streamRetry)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}
