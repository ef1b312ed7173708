package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
)

// journalRecord is one line of the append-only job journal. A job's
// life is a "submit" record, optionally followed by exactly one
// terminal record ("done" or "cancel"); a submit with no terminal
// record is a job the previous process never finished — the resume set.
// A "seq" record carries the highest job ID issued so far across
// compaction, so a restarted daemon never reissues an ID a client may
// still be waiting on.
type journalRecord struct {
	Op  string `json:"op"` // submit | done | cancel | seq
	Job *Job   `json:"job,omitempty"`
	// Terminal-record fields (op done/cancel); ID alone for op seq.
	ID         string `json:"id,omitempty"`
	State      State  `json:"state,omitempty"`
	Verdict    string `json:"verdict,omitempty"`
	Detail     string `json:"detail,omitempty"`
	States     int    `json:"states,omitempty"`
	MemoHits   int    `json:"memo_hits,omitempty"`
	FinishedNS int64  `json:"finished_unix_ns,omitempty"`
}

// journal is the crash-safe append-only record of admitted jobs. Every
// append is fsynced before the admission (or completion) is
// acknowledged, so a SIGKILL between acknowledgment and completion
// loses no admitted work: openJournal replays the tail on restart.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	enc  *json.Encoder
	path string
}

// openJournal opens (creating if absent) the journal at path, replays
// it, compacts it down to the high-water ID and the still-pending
// submissions, and returns the journal ready for appending, the
// pending jobs in submission order and the highest job number ever
// issued. Corrupt trailing lines — the torn write of a crash — are
// ignored; corrupt interior lines are skipped with the same logic
// (a record either parses or contributes nothing).
func openJournal(path string) (*journal, []*Job, int, error) {
	pending, maxID, err := replayJournal(path)
	if err != nil {
		return nil, nil, 0, err
	}
	// Compact: rewrite the journal as the high-water ID plus the pending
	// submissions, via temp file + rename so a crash mid-compaction
	// leaves the old journal intact.
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: compacting journal: %w", err)
	}
	enc := json.NewEncoder(f)
	recs := []journalRecord{{Op: "seq", ID: jobID(maxID)}}
	for _, j := range pending {
		recs = append(recs, journalRecord{Op: "submit", Job: j})
	}
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("jobs: compacting journal: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("jobs: compacting journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: compacting journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: compacting journal: %w", err)
	}
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: opening journal: %w", err)
	}
	return &journal{f: af, enc: json.NewEncoder(af), path: path}, pending, maxID, nil
}

// replayJournal reads the journal and returns the pending jobs (in
// submission order) and the highest numeric job id seen, counting the
// high-water mark a previous compaction kept in its "seq" record.
func replayJournal(path string) ([]*Job, int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("jobs: replaying journal: %w", err)
	}
	defer f.Close()
	jobs := make(map[string]*Job)
	var order []string
	maxID := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue // torn or corrupt line: contributes nothing
		}
		switch rec.Op {
		case "submit":
			if rec.Job == nil || rec.Job.ID == "" {
				continue
			}
			if _, dup := jobs[rec.Job.ID]; !dup {
				order = append(order, rec.Job.ID)
			}
			jobs[rec.Job.ID] = rec.Job
			if n := idNumber(rec.Job.ID); n > maxID {
				maxID = n
			}
		case "done", "cancel":
			delete(jobs, rec.ID)
		case "seq":
			if n := idNumber(rec.ID); n > maxID {
				maxID = n
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("jobs: replaying journal: %w", err)
	}
	var pending []*Job
	for _, id := range order {
		if j, ok := jobs[id]; ok {
			pending = append(pending, j)
		}
	}
	return pending, maxID, nil
}

// jobID formats job number n as its "j-<n>" id.
func jobID(n int) string { return fmt.Sprintf("j-%06d", n) }

// idNumber extracts the numeric suffix of a "j-<n>" job id, 0 otherwise.
func idNumber(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "j-%d", &n); err != nil {
		return 0
	}
	return n
}

// submit durably records an admitted job. The append is fsynced before
// returning: once the submitter has its job id, a crash cannot lose the
// job.
func (j *journal) submit(job *Job) error {
	if j == nil {
		return nil
	}
	return j.append(journalRecord{Op: "submit", Job: job})
}

// done durably records a job's terminal verdict.
func (j *journal) done(job *Job) error {
	if j == nil {
		return nil
	}
	return j.append(journalRecord{
		Op: "done", ID: job.ID, State: job.State,
		Verdict: job.Verdict, Detail: job.Detail,
		States: job.States, MemoHits: job.MemoHits, FinishedNS: job.FinishedNS,
	})
}

// cancel durably records a cancellation, so a canceled-while-pending job
// is not resurrected by replay.
func (j *journal) cancel(id string) error {
	if j == nil {
		return nil
	}
	return j.append(journalRecord{Op: "cancel", ID: id})
}

func (j *journal) append(rec journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("jobs: journal closed")
	}
	if err := j.enc.Encode(rec); err != nil {
		return fmt.Errorf("jobs: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("jobs: journal sync: %w", err)
	}
	return nil
}

// close releases the journal file. Pending submissions stay on disk for
// the next instance to resume.
func (j *journal) close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
