package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"calgo/internal/history"
	"calgo/internal/obs"
	"calgo/internal/spec"
)

// satHistory is a complete, CAL-satisfiable exchange of a and b.
func satHistory(a, b int) string {
	return fmt.Sprintf(`inv t1 E.exchange %d
inv t2 E.exchange %d
res t1 E.exchange (true,%d)
res t2 E.exchange (true,%d)
`, a, b, b, a)
}

// unsatHistory is a lone successful exchange — no partner can justify it.
const unsatHistory = `inv t1 E.exchange 3
res t1 E.exchange (true,4)
`

func waitTerminal(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Job{}
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Drain(ctx)
}

func TestSubmitVerdicts(t *testing.T) {
	m, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)

	ok, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, m, ok.ID); j.Verdict != "OK" {
		t.Errorf("satisfiable history: verdict %q detail %q, want OK", j.Verdict, j.Detail)
	}

	bad, err := m.Submit("c", Request{Spec: "exchanger", History: unsatHistory})
	if err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, m, bad.ID); j.Verdict != "VIOLATION" {
		t.Errorf("lone success: verdict %q, want VIOLATION", j.Verdict)
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	m, err := New(Config{Workers: 1, MaxHistoryBytes: 128, MaxHistoryEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)

	var reqErr *RequestError
	for name, req := range map[string]Request{
		"unknown spec":   {Spec: "nope", History: satHistory(1, 2)},
		"unknown mode":   {Spec: "exchanger", Mode: "zap", History: satHistory(1, 2)},
		"syntax error":   {Spec: "exchanger", History: "zap t1 E.exchange 3\n"},
		"not wellformed": {Spec: "exchanger", History: "res t1 E.exchange (true,4)\n"},
		"too many bytes": {Spec: "exchanger", History: strings.Repeat("#", 256) + "\n"},
		"too many events": {Spec: "exchanger",
			History: satHistory(1, 2) + "inv t3 E.exchange 9\nres t3 E.exchange (false,9)\n"},
	} {
		if _, err := m.Submit("c", req); !errors.As(err, &reqErr) {
			t.Errorf("%s: err = %v, want *RequestError", name, err)
		}
	}
}

// TestSpecByName pins the specification vocabulary calcheck and the job
// and stream APIs share.
func TestSpecByName(t *testing.T) {
	known := []string{"exchanger", "elimarray", "stack", "central-stack", "dual-stack", "queue", "set", "pqueue", "syncqueue", "register", "snapshot"}
	for _, name := range known {
		sp, err := SpecByName(name, "O", 3)
		if err != nil {
			t.Errorf("SpecByName(%q): %v", name, err)
			continue
		}
		if sp.Object() != "O" {
			t.Errorf("SpecByName(%q).Object() = %q", name, sp.Object())
		}
	}
	if _, err := SpecByName("nonsense", "O", 3); err == nil {
		t.Error("unknown spec should fail")
	}
	if sp, err := SpecByName("snapshot", "O", 0); err != nil || sp.(spec.Snapshot).Threads != 4 {
		t.Errorf("SpecByName(snapshot, threads 0) = %+v, %v; want 4 participants", sp, err)
	}
}

// TestBudgetClampAndUnknown pins graceful degradation: budgets above the
// server maxima are clamped to them, the job document records the
// effective values, and an exhausted budget is an UNKNOWN verdict, not a
// hung or failed request.
func TestBudgetClampAndUnknown(t *testing.T) {
	m, err := New(Config{Workers: 1, MaxStates: 1, MaxTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)

	// Two exchange pairs need two explored states — one over the budget.
	twoPairs := satHistory(3, 4) + strings.NewReplacer("t1", "t3", "t2", "t4").Replace(satHistory(5, 6))
	snap, err := m.Submit("c", Request{Spec: "exchanger", History: twoPairs,
		MaxStates: 1 << 30, TimeoutMS: 3_600_000})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Request.MaxStates != 1 || snap.Request.TimeoutMS != 1000 {
		t.Errorf("budgets not clamped: states %d timeout %dms", snap.Request.MaxStates, snap.Request.TimeoutMS)
	}
	if j := waitTerminal(t, m, snap.ID); j.Verdict != "UNKNOWN" {
		t.Errorf("1-state budget: verdict %q detail %q, want UNKNOWN", j.Verdict, j.Detail)
	}
}

// blockingManager starts a manager whose single worker blocks in OnDone
// after finishing each job, giving tests a deterministic window in which
// queued jobs cannot be picked up. Returns the manager and the release
// channel (send one value per job to let the worker continue).
func blockingManager(t *testing.T, cfg Config) (*Manager, chan struct{}) {
	t.Helper()
	release := make(chan struct{}, 64)
	cfg.Workers = 1
	cfg.CacheEntries = -1
	cfg.OnDone = func(Job) { <-release }
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, release
}

func TestQueueFullSheds(t *testing.T) {
	m, release := blockingManager(t, Config{QueueDepth: 1})
	defer drain(t, m)
	defer close(release)

	// Occupy the worker: job 1 finishes, then its OnDone blocks.
	j1, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, j1.ID)

	// The queue (depth 1) now absorbs exactly one more job.
	if _, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(3, 4)}); err != nil {
		t.Fatalf("second submission should queue: %v", err)
	}
	var over *OverloadError
	_, err = m.Submit("c", Request{Spec: "exchanger", History: satHistory(5, 6)})
	if !errors.As(err, &over) {
		t.Fatalf("third submission: err = %v, want *OverloadError", err)
	}
	if over.Cause != "queue full" || over.RetryAfter <= 0 {
		t.Errorf("shed error = %+v, want queue-full with a positive Retry-After", over)
	}
	if got := m.cShed.Value(); got != 1 {
		t.Errorf("jobs.shed = %d, want 1", got)
	}
}

func TestCancelPendingAndUnknownID(t *testing.T) {
	m, release := blockingManager(t, Config{QueueDepth: 4})
	defer drain(t, m)
	defer close(release)

	j1, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, j1.ID) // worker now blocked in OnDone

	j2, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, m, j2.ID); j.State != StateCanceled {
		t.Errorf("canceled pending job state = %s, want canceled", j.State)
	}
	if err := m.Cancel(j2.ID); err != nil {
		t.Errorf("canceling a terminal job = %v, want nil", err)
	}
	if err := m.Cancel("j-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("canceling unknown id = %v, want ErrNotFound", err)
	}
	release <- struct{}{} // let the (skipped) j2 slot drain
}

func TestVerdictCacheHit(t *testing.T) {
	mtr := obs.NewMetrics()
	m, err := New(Config{Workers: 1, Metrics: mtr})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)

	first, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, first.ID)

	// Same history under renamed threads: the canonical fingerprint makes
	// it the same cache entry.
	renamed := strings.NewReplacer("t1", "t7", "t2", "t9").Replace(satHistory(3, 4))
	again, err := m.Submit("c", Request{Spec: "exchanger", History: renamed})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.State != StateDone || again.Verdict != "OK" {
		t.Errorf("resubmission = %+v, want an immediate cached OK", again)
	}
	if hits := mtr.Counter("jobs.cache_hits").Value(); hits != 1 {
		t.Errorf("jobs.cache_hits = %d, want 1", hits)
	}
	// A different history misses.
	other, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(5, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("distinct history must not hit the cache")
	}
	waitTerminal(t, m, other.ID)
}

func TestRateLimiting(t *testing.T) {
	m, err := New(Config{Workers: 1, Rate: 0.001, Burst: 2, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)

	for i := 0; i < 2; i++ {
		if _, err := m.Submit("alice", Request{Spec: "exchanger", History: satHistory(i, i+10)}); err != nil {
			t.Fatalf("submission %d within burst: %v", i, err)
		}
	}
	var over *OverloadError
	_, err = m.Submit("alice", Request{Spec: "exchanger", History: satHistory(20, 30)})
	if !errors.As(err, &over) || over.Cause != "rate limited" || over.RetryAfter <= 0 {
		t.Fatalf("over-burst submission: err = %v, want rate-limited *OverloadError", err)
	}
	// A different client has its own bucket.
	if _, err := m.Submit("bob", Request{Spec: "exchanger", History: satHistory(40, 50)}); err != nil {
		t.Errorf("other client rate-limited too: %v", err)
	}
	if got := m.cRateLimited.Value(); got != 1 {
		t.Errorf("jobs.rate_limited = %d, want 1", got)
	}
}

// TestDrainLeavesQueuedJobsPending pins the drain guarantee the ci.sh
// smoke relies on: once draining begins, a worker finishing its current
// job must not pick up a queued one — that job stays pending (and
// journaled) for the next instance to resume. Before the worker's
// draining check this was a select race: stop signal and queued job
// both ready, either could win.
func TestDrainLeavesQueuedJobsPending(t *testing.T) {
	m, release := blockingManager(t, Config{QueueDepth: 4})

	a, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, a.ID) // state finalizes first; worker parks in OnDone

	b, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(3, 4)})
	if err != nil {
		t.Fatal(err)
	}

	pendingCh := make(chan int, 1)
	go func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // expired: cancel running jobs immediately
		pendingCh <- m.Drain(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !m.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never marked the manager draining")
		}
		time.Sleep(time.Millisecond)
	}
	release <- struct{}{} // un-park the worker: it must exit, not run b

	if pending := <-pendingCh; pending != 1 {
		t.Fatalf("Drain left %d pending jobs, want 1", pending)
	}
	got, ok := m.Get(b.ID)
	if !ok || got.State != StatePending {
		t.Fatalf("queued job after drain = %+v (ok=%v), want pending", got, ok)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	m, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, m)
	if _, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(1, 2)}); !errors.Is(err, ErrDraining) {
		t.Errorf("submission to drained manager = %v, want ErrDraining", err)
	}
}

// TestJournalCrashResume simulates a crash: a manager with a blocked
// worker admits jobs it never finishes, the process "dies" (no Drain),
// and a fresh manager on the same journal resumes and completes them.
func TestJournalCrashResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cald.journal")
	m1, release := blockingManager(t, Config{QueueDepth: 8, JournalPath: path})

	done, err := m1.Submit("c", Request{Spec: "exchanger", History: satHistory(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, done.ID) // worker blocked in OnDone from here on

	var admitted []string
	for i := 0; i < 2; i++ {
		j, err := m1.Submit("c", Request{Spec: "exchanger", History: satHistory(10+i, 20+i)})
		if err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, j.ID)
	}
	// Crash: no Drain, no journal close. The admitted-but-unfinished jobs
	// are on disk because Submit fsyncs before acknowledging.

	m2, err := New(Config{Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range admitted {
		j := waitTerminal(t, m2, id)
		if !j.Resumed || j.Verdict != "OK" {
			t.Errorf("resumed job %s = resumed %v verdict %q, want resumed OK", id, j.Resumed, j.Verdict)
		}
	}
	if got := m2.cResumed.Value(); got != 2 {
		t.Errorf("jobs.resumed = %d, want 2", got)
	}
	// New ids must not collide with journaled ones.
	j, err := m2.Submit("c", Request{Spec: "exchanger", History: satHistory(77, 88)})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range admitted {
		if j.ID == id {
			t.Errorf("fresh id %s collides with a resumed job", j.ID)
		}
	}
	waitTerminal(t, m2, j.ID)
	drain(t, m2)

	// Release the crashed instance's worker so the test leaks nothing.
	close(release)
	drain(t, m1)

	// A third instance sees a fully-compacted journal: nothing pending.
	m3, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m3.List()); n != 0 {
		t.Errorf("third instance resumed %d jobs, want 0", n)
	}
	drain(t, m3)
}

// TestJournalSkipsCorruptLines pins torn-write tolerance: garbage lines
// (a crash mid-append) contribute nothing and replay continues.
func TestJournalSkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cald.journal")
	rec := fmt.Sprintf(`{"op":"submit","job":{"schema":%q,"id":"j-000007","state":"pending","request":{"spec":"exchanger","history":%q,"timeout_ms":1000,"max_states":1000}}}`,
		Schema, satHistory(1, 2))
	content := "not json at all\n" + rec + "\n" + `{"op":"done","id":"j-missing"}` + "\n" + `{"op":"sub` // torn tail
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, m)
	j := waitTerminal(t, m, "j-000007")
	if !j.Resumed || j.Verdict != "OK" {
		t.Errorf("job from dirty journal = resumed %v verdict %q, want resumed OK", j.Resumed, j.Verdict)
	}
}

// TestJournalIDsRiseAcrossRestarts pins that a restarted daemon never
// reissues a job ID, even when compaction left nothing pending: a
// client still waiting on an old ID across the restart must not read a
// new job's verdict as its own.
func TestJournalIDsRiseAcrossRestarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cald.journal")
	last := 0
	for restart := 0; restart <= 2; restart++ {
		m, err := New(Config{Workers: 1, JournalPath: path})
		if err != nil {
			t.Fatal(err)
		}
		j, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(restart+1, restart+50)})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m, j.ID)
		drain(t, m)
		if n := idNumber(j.ID); n <= last {
			t.Errorf("after %d restart(s) the first job got %s, want a number above %d", restart, j.ID, last)
		} else {
			last = n
		}
	}
}

// TestSubmitCancelShedRaces hammers the admission path from many
// goroutines while others cancel random ids — the -race run of this test
// is the package's data-race gate. Every job must end terminal and every
// submission must either succeed or fail with a typed admission error.
func TestSubmitCancelShedRaces(t *testing.T) {
	m, err := New(Config{Workers: 4, QueueDepth: 4, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}

	const submitters = 8
	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 25; i++ {
				j, err := m.Submit(fmt.Sprintf("c%d", g), Request{
					Spec: "exchanger", History: satHistory(g*100+i, g*100+i+1000),
				})
				switch {
				case err == nil:
					mu.Lock()
					ids = append(ids, j.ID)
					mu.Unlock()
				default:
					var over *OverloadError
					if !errors.As(err, &over) {
						t.Errorf("submit: unexpected error %v", err)
						return
					}
				}
				if rng.Intn(3) == 0 {
					mu.Lock()
					var victim string
					if len(ids) > 0 {
						victim = ids[rng.Intn(len(ids))]
					}
					mu.Unlock()
					if victim != "" {
						if err := m.Cancel(victim); err != nil && !errors.Is(err, ErrNotFound) {
							t.Errorf("cancel %s: %v", victim, err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	for _, id := range ids {
		waitTerminal(t, m, id)
	}
	drain(t, m)
	for _, j := range m.List() {
		if !j.State.Terminal() {
			t.Errorf("job %s left in state %s after drain", j.ID, j.State)
		}
	}
}

// TestJobsDropParsedHistory: once a job leaves the pending state only
// its text is kept, so retained jobs do not hold parsed events.
func TestJobsDropParsedHistory(t *testing.T) {
	m, release := blockingManager(t, Config{QueueDepth: 4})
	defer drain(t, m)
	defer close(release)

	parsed := func(id string) history.History {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.find(id).parsed
	}
	done, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, done.ID) // worker now blocked in OnDone
	if h := parsed(done.ID); h != nil {
		t.Errorf("finished job still holds %d parsed events", len(h))
	}

	pending, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if parsed(pending.ID) == nil {
		t.Fatal("pending job lost its parsed history before a worker took it")
	}
	if err := m.Cancel(pending.ID); err != nil {
		t.Fatal(err)
	}
	if h := parsed(pending.ID); h != nil {
		t.Errorf("canceled pending job still holds %d parsed events", len(h))
	}
	release <- struct{}{}
}

// TestWatchDeliversTerminalFrame pins the watcher contract: the channel
// carries snapshots and closes after the terminal one.
func TestWatchDeliversTerminalFrame(t *testing.T) {
	m, release := blockingManager(t, Config{QueueDepth: 4})
	defer drain(t, m)
	defer close(release)

	j1, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, j1.ID) // block the worker

	j2, err := m.Submit("c", Request{Spec: "exchanger", History: satHistory(3, 4)})
	if err != nil {
		t.Fatal(err)
	}
	snap, updates, stop, err := m.Watch(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if snap.State != StatePending {
		t.Fatalf("watch snapshot state = %s, want pending", snap.State)
	}
	release <- struct{}{} // unblock: worker picks up j2
	release <- struct{}{} // and may block again after it

	var last Job
	for j := range updates {
		last = j
	}
	if !last.State.Terminal() || last.Verdict != "OK" {
		t.Errorf("last watched frame = state %s verdict %q, want terminal OK", last.State, last.Verdict)
	}

	// Watching an already-terminal job: snapshot plus a closed channel.
	snap, updates, stop, err = m.Watch(j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if !snap.State.Terminal() {
		t.Errorf("terminal watch snapshot state = %s", snap.State)
	}
	if _, open := <-updates; open {
		t.Error("terminal watch channel must be closed")
	}
}
