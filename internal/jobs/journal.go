package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"calgo/internal/jsonlog"
)

// journalRecord is one line of the append-only job journal. A job's
// life is a "submit" record, optionally followed by exactly one
// terminal record ("done" or "cancel"); a submit with no terminal
// record is a job the previous process never finished — the resume set.
// A "seq" record carries the highest job ID issued so far across
// compaction, so a restarted daemon never reissues an ID a client may
// still be waiting on. Verdicts are not journaled: replay needs only
// which jobs ended, and the run-history store keeps what they found.
type journalRecord struct {
	Op  string `json:"op"` // submit | done | cancel | seq
	Job *Job   `json:"job,omitempty"`
	// ID names the job of a done or cancel record, and the high-water
	// ID of a seq record.
	ID string `json:"id,omitempty"`
}

// journal is the crash-safe append-only record of admitted jobs. Every
// append is fsynced before the admission (or completion) is
// acknowledged, so a SIGKILL between acknowledgment and completion
// loses no admitted work: openJournal replays the tail on restart.
type journal struct {
	mu  sync.Mutex
	log *jsonlog.Log
}

// openJournal opens (creating if absent) the journal at path, replays
// it, compacts it down to the high-water ID and the still-pending
// submissions, and returns the journal ready for appending, the
// pending jobs in submission order and the highest job number ever
// issued. A line that does not parse — the torn write of a crash, or
// an interior line damaged on disk — contributes nothing.
func openJournal(path string) (*journal, []*Job, int, error) {
	jobs := make(map[string]*Job)
	var order []string
	maxID := 0
	_, _, err := jsonlog.Replay(path, func(_ int64, line []byte) {
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil {
			return
		}
		switch rec.Op {
		case "submit":
			if rec.Job == nil || rec.Job.ID == "" {
				return
			}
			if _, dup := jobs[rec.Job.ID]; !dup {
				order = append(order, rec.Job.ID)
			}
			jobs[rec.Job.ID] = rec.Job
			maxID = max(maxID, idNumber(rec.Job.ID))
		case "done", "cancel":
			delete(jobs, rec.ID)
		case "seq":
			maxID = max(maxID, idNumber(rec.ID))
		}
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: %w", err)
	}
	// Compact: the high-water ID plus the pending submissions replace
	// the journal in one atomic rewrite, so a crash mid-compaction
	// leaves the old journal intact.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err = enc.Encode(journalRecord{Op: "seq", ID: jobID(maxID)})
	var pending []*Job
	for _, id := range order {
		if j, ok := jobs[id]; ok {
			pending = append(pending, j)
			if err == nil {
				err = enc.Encode(journalRecord{Op: "submit", Job: j})
			}
		}
	}
	if err == nil {
		err = jsonlog.WriteFile(path, buf.Bytes())
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: compacting journal: %w", err)
	}
	log, err := jsonlog.Open(path, int64(buf.Len()))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobs: opening journal: %w", err)
	}
	return &journal{log: log}, pending, maxID, nil
}

// jobID formats job number n as its "j-<n>" id.
func jobID(n int) string { return fmt.Sprintf("j-%06d", n) }

// idNumber extracts the numeric suffix of a "j-<n>" job id, 0 otherwise.
func idNumber(id string) int {
	digits, ok := strings.CutPrefix(id, "j-")
	n, err := strconv.Atoi(digits)
	if !ok || err != nil {
		return 0
	}
	return n
}

// submit durably records an admitted job. The append is fsynced before
// returning: once the submitter has its job id, a crash cannot lose the
// job.
func (j *journal) submit(job *Job) error {
	return j.append(journalRecord{Op: "submit", Job: job})
}

// done durably records that a job reached a terminal verdict.
func (j *journal) done(job *Job) error {
	return j.append(journalRecord{Op: "done", ID: job.ID})
}

// cancel durably records a cancellation, so a canceled-while-pending job
// is not resurrected by replay.
func (j *journal) cancel(id string) error {
	return j.append(journalRecord{Op: "cancel", ID: id})
}

func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log == nil {
		return fmt.Errorf("jobs: journal closed")
	}
	if _, _, err := j.log.Append(rec); err != nil {
		return fmt.Errorf("jobs: journal %s: %w", rec.Op, err)
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
	if j.log == nil {
		return nil
	}
	err := j.log.Close()
	j.log = nil
	return err
}
