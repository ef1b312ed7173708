package jobs

import (
	"slices"
	"sync"
)

// maxEnded bounds the ended documents each manager keeps — finished or
// canceled jobs, closed streams. Past it the entry that ended first is
// evicted and its ID answers 404. It must stay well above 300:
// perfbench seeds cald's journal by submitting 300 jobs and polling
// each with Manager.Get until it is terminal, and an evicted seed ID
// would never turn terminal.
const maxEnded = 1024

// document is what a table holds: a job or stream document that knows
// whether it has ended, after which it never changes again.
type document interface{ ended() bool }

// table is the ID→document bookkeeping under Manager and StreamManager:
// documents in creation order, a watcher fan-out that never blocks, and
// at most maxEnded ended documents. Both managers embed it, so its
// mutex is theirs: Get, List and Watch take it, and the other methods
// run with it held.
type table[D document] struct {
	mu    sync.Mutex
	byID  map[string]*entry[D]
	order []*entry[D] // creation order
	ended []*entry[D] // the order entries ended in, oldest first
}

type entry[D document] struct {
	id   string
	doc  D
	subs []chan D // open Watch subscriptions
}

// add stores a new document; one that has already ended (a cached
// verdict) counts against maxEnded at once.
func (t *table[D]) add(id string, d D) {
	if t.byID == nil {
		t.byID = make(map[string]*entry[D])
	}
	e := &entry[D]{id: id, doc: d}
	t.byID[id] = e
	t.order = append(t.order, e)
	if d.ended() {
		t.end(e)
	}
}

// find returns id's document for in-place update, nil when unknown or
// evicted. A document that has not ended is never evicted, so the
// pointer stays valid until publish reports its end.
func (t *table[D]) find(id string) *D {
	if e, ok := t.byID[id]; ok {
		return &e.doc
	}
	return nil
}

// publish fans id's current document out to its subscribers without
// blocking: a slow one misses intermediate frames, never the terminal
// frame, after which every subscription is closed.
func (t *table[D]) publish(id string) {
	e := t.byID[id]
	ended := e.doc.ended()
	for _, ch := range e.subs {
		select {
		case ch <- e.doc:
		default:
			if ended {
				// Full: drop the oldest frame to make room. Only publish
				// sends, under mu, so the send below cannot block.
				select {
				case <-ch:
				default:
				}
				ch <- e.doc
			}
		}
	}
	if ended {
		for _, ch := range e.subs {
			close(ch)
		}
		e.subs = nil
		t.end(e)
	}
}

// end records that e ended and evicts the entries that ended first
// past maxEnded.
func (t *table[D]) end(e *entry[D]) {
	t.ended = append(t.ended, e)
	for len(t.ended) > maxEnded {
		old := t.ended[0]
		t.ended = slices.Delete(t.ended, 0, 1)
		delete(t.byID, old.id)
		i := slices.Index(t.order, old)
		t.order = slices.Delete(t.order, i, i+1)
	}
}

// live counts the documents that have not ended.
func (t *table[D]) live() int { return len(t.byID) - len(t.ended) }

// unended returns the documents that have not ended, oldest first, for
// in-place update.
func (t *table[D]) unended() []*D {
	var out []*D
	for _, e := range t.order {
		if !e.doc.ended() {
			out = append(out, &e.doc)
		}
	}
	return out
}

// release closes every open subscription, so a drain frees whoever
// still waits on a document that will not end in this process.
func (t *table[D]) release() {
	for _, e := range t.order {
		for _, ch := range e.subs {
			close(ch)
		}
		e.subs = nil
	}
}

// Get returns a snapshot of the document, if known.
func (t *table[D]) Get(id string) (D, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.byID[id]; ok {
		return e.doc, true
	}
	var zero D
	return zero, false
}

// List returns snapshots of every known document, oldest first.
func (t *table[D]) List() []D {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]D, len(t.order))
	for i, e := range t.order {
		out[i] = e.doc
	}
	return out
}

// Watch subscribes to a document's changes: it returns the current
// snapshot plus a channel carrying later ones, closed after the
// terminal one (at once when the document has already ended) or when
// the manager drains. The stop function must be called to release the
// subscription.
func (t *table[D]) Watch(id string) (D, <-chan D, func(), error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byID[id]
	if !ok {
		var zero D
		return zero, nil, nil, ErrNotFound
	}
	// The buffer lets a subscriber fall a few frames behind a stream's
	// batches before publish starts dropping intermediate ones.
	ch := make(chan D, 16)
	if e.doc.ended() {
		close(ch)
		return e.doc, ch, func() {}, nil
	}
	e.subs = append(e.subs, ch)
	stop := func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		if i := slices.Index(e.subs, ch); i >= 0 {
			e.subs = slices.Delete(e.subs, i, i+1)
		}
		if len(e.subs) == 0 {
			e.subs = nil // a document whose long-polls ran out keeps no list
		}
	}
	return e.doc, ch, stop, nil
}
