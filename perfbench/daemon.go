package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"calgo/internal/jobs"
	"calgo/internal/render"
	"calgo/internal/runstore"
)

// Durable state the daemon starts from. The benchmark seeds a run-history
// store and a job journal once per run; every daemon start gets a fresh
// copy, so each pays the same store replay and journal compaction.
const (
	seedRecords = 2_000
	seedJobs    = 300
)

type durable struct {
	storeSeed, journalSeed string
	store, journal         string
}

// seedDurable writes the seeded store and journal under dir: store
// records shaped like the ones cald writes per finished job, and a
// journal of finished jobs made by the job manager itself.
func seedDurable(dir string, seed int64) (*durable, error) {
	du := &durable{
		storeSeed: filepath.Join(dir, "seed-store"), journalSeed: filepath.Join(dir, "seed-journal"),
		store: filepath.Join(dir, "store"), journal: filepath.Join(dir, "journal"),
	}
	r := rand.New(rand.NewSource(seed))
	st, err := runstore.OpenFS(du.storeSeed, runstore.FSOptions{})
	if err != nil {
		return nil, err
	}
	verdicts := []string{"OK", "VIOLATION", "UNKNOWN"}
	for i := 0; i < seedRecords; i++ {
		doc := render.NewReport("cald", time.Unix(1_700_000_000+int64(i), 0))
		id := fmt.Sprintf("j-%06d", i+1)
		doc.Runs = []render.Run{{Name: id, Verdict: verdicts[r.Intn(3)], Detail: fmt.Sprintf("states explored: %d", r.Intn(5000))}}
		rec := &runstore.Record{Report: doc, Labels: map[string]string{
			"spec": []string{"exchanger", "queue", "syncqueue", "snapshot"}[r.Intn(4)], "mode": "cal", "engine": "auto", "object": "E",
		}}
		if err := st.Put(rec); err != nil {
			st.Close()
			return nil, fmt.Errorf("seeding store: %w", err)
		}
	}
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("seeding store: %w", err)
	}

	mgr, err := jobs.New(jobs.Config{JournalPath: du.journalSeed, QueueDepth: seedJobs})
	if err != nil {
		return nil, err
	}
	var ids []string
	for i := 0; i < seedJobs; i++ {
		in := genExchanger(r, "seed", 2+r.Intn(7), r.Float64() < 0.2)
		j, err := mgr.Submit("seed", jobs.Request{Spec: in.Spec, Object: in.Object, Engine: "auto", History: in.Text})
		if err != nil {
			return nil, fmt.Errorf("seeding journal: %w", err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		for {
			j, _ := mgr.Get(id)
			if j.State.Terminal() {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	mgr.Drain(context.Background())
	return du, nil
}

// fresh replaces the working store and journal with copies of the seeds.
func (du *durable) fresh() error {
	for _, p := range []string{du.store, du.journal} {
		if err := os.RemoveAll(p); err != nil {
			return err
		}
	}
	if err := copyFile(du.journalSeed, du.journal); err != nil {
		return err
	}
	return filepath.WalkDir(du.storeSeed, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(du.storeSeed, p)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(du.store, rel), 0o755)
		}
		return copyFile(p, filepath.Join(du.store, rel))
	})
}

// bytes is the current size of the working journal and store.
func (du *durable) bytes() int64 {
	var n int64
	if fi, err := os.Stat(du.journal); err == nil {
		n += fi.Size()
	}
	_ = filepath.WalkDir(du.store, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// daemon is one cald process on loopback.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error

	once    sync.Once
	stopErr error
}

// maxHistoryBytes lifts cald's upload limit so the 50k-event histories of
// the service mix are admitted.
const maxHistoryBytes = 4 << 20

// startDaemon execs cald on a free loopback port with the working journal
// and store, and returns once /statusz answers, with the time that took.
func startDaemon(rc *runCtx, du *durable, logName string) (*daemon, time.Duration, error) {
	if rc.cald == "" {
		return nil, 0, errors.New("no cald binary given (--cald)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(rc.dir, logName))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(rc.cald, "-addr", addr, "-journal", du.journal, "-store", du.store,
		"-max-history-bytes", strconv.Itoa(maxHistoryBytes))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := hc.Get(d.base + "/statusz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case err := <-d.done:
			return nil, 0, fmt.Errorf("cald exited before serving: %v (log %s)", err, logf.Name())
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, 0, errors.New("cald did not answer /statusz within 60s")
		}
	}
}

// pid names the daemon's process under /proc.
func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes too long. Later calls return the first result.
// A daemon stopped right after it began serving may not have installed
// its signal handler yet; dying of the SIGTERM is a clean stop too.
func (d *daemon) stop() error {
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case d.stopErr = <-d.done:
			var exit *exec.ExitError
			if errors.As(d.stopErr, &exit) {
				if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
					d.stopErr = nil
				}
			}
		case <-time.After(60 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
			d.stopErr = errors.New("cald did not drain within 60s")
		}
	})
	return d.stopErr
}

// scrape reads the named series from the daemon's Prometheus /metrics.
func (d *daemon) scrape(names ...string) (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// startServing measures set-up over several daemon starts, each on a
// fresh copy of the seeded state, and leaves the last one running.
func startServing(rc *runCtx, du *durable) (*daemon, float64, error) {
	var samples []float64
	for i := 0; ; i++ {
		if err := du.fresh(); err != nil {
			return nil, 0, err
		}
		d, took, err := startDaemon(rc, du, fmt.Sprintf("cald-%d.log", i))
		if err != nil {
			return nil, 0, err
		}
		samples = append(samples, took.Seconds())
		if i == setupProbes-1 {
			return d, percentile(samples, 0.5), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
}
