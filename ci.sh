#!/bin/sh
# ci.sh — the repo's single verification gate (ROADMAP tier-1 and more):
# formatting, vet, build, the default test suite, and a race-detector
# pass. The extended chaos soak is tag-gated (make chaos) and not part of
# this gate; the race pass uses -short to skip the largest exhaustive
# model explorations, which dominate runtime even without the race
# detector. It still explores F1 and F2 at 1, 4 and GOMAXPROCS workers
# (TestParallelEquivalenceF1/F2), whose successor states share their
# parent's trace and history slices across workers. Both race passes run
# at GOMAXPROCS=4, so the explorer's workers (and the hooks they call)
# overlap even on a one-core host.
set -eu

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== go test ./... =="
go test ./...

# The history scanner must accept exactly the language of the
# Split/Fields parser it replaced, with the same diagnostics and limits.
# go test replays only the seeds, which pin known edges, so fuzz it
# against that reference (internal/history/parse_ref_test.go) for a
# bounded time.
echo "== history parser differential fuzz =="
go test -run '^$' -fuzz '^FuzzParseMatchesReference$' -fuzztime 10s ./internal/history

# Spec states are varint sequences whose strings are the memo keys, so
# the codec must stay canonical: equal sequences, equal bytes. go test
# replays only the seeds; fuzz the codec against a []int64 reference
# for a bounded time.
echo "== spec state codec fuzz =="
go test -run '^$' -fuzz '^FuzzInts$' -fuzztime 10s ./internal/spec

# perfbench is a module of its own (replace calgo => ../), so neither
# the root vet nor the root tests compile it: vet and test it here, so a
# library change that breaks the benchmark fails this gate first.
echo "== perfbench: go vet ./... && go test ./... =="
(cd perfbench && go vet ./... && go test ./...)

echo "== GOMAXPROCS=4 go test -race -short ./... =="
GOMAXPROCS=4 go test -race -short ./...

# The parallel engine, the batch checker, the daemon's job queue, the
# specialized monitors, the run-history store, the durable log under the
# journal and the store, and the rely/guarantee hooks are the packages
# whose correctness depends on cross-goroutine coordination or crash
# replay (the monitors via the checker's engine dispatch and the
# cross-validation harness, the store via concurrent Put/List and
# crash-replay, rg via explorer hooks called from every worker); run
# their full (non-short) suites under the race detector. internal/model
# stays -short (above): its full suite takes minutes under -race.
echo "== GOMAXPROCS=4 go test -race ./internal/sched/ ./internal/check/ ./internal/jobs/ ./internal/monitor/ ./internal/runstore/ ./internal/jsonlog/ ./internal/rg/ =="
GOMAXPROCS=4 go test -race ./internal/sched/ ./internal/check/ ./internal/jobs/ ./internal/monitor/ ./internal/runstore/ ./internal/jsonlog/ ./internal/rg/

# Guard the deprecation sweep: the context-first API is the only one,
# and none of the deleted legacy symbols may reappear in Go sources.
echo "== deprecated-symbol guard =="
if grep -rn "CALContext\|LinearizableContext\|WithWorkers\|ExploreOptions\|AliasWorkers" \
    --include="*.go" .; then
    echo "deleted deprecated symbols reappeared (see matches above)" >&2
    exit 1
fi
echo "deprecated symbols absent from Go sources"

# Smoke the CLI path of the work-stealing engine: the F1 exchanger
# battery at full parallelism must verify cleanly (exit 0).
echo "== calexplore -workers smoke =="
workers=$( (nproc || echo 4) 2>/dev/null )
if go run ./cmd/calexplore -target exchanger -values 3,4,7 -workers "$workers"; then
    echo "calexplore -workers $workers: OK"
else
    echo "calexplore -workers $workers failed" >&2
    exit 1
fi

# Smoke the observability path: calcheck -metrics-json must emit a valid
# calgo.metrics/v1 document with the core search counters, and -trace
# must dump a non-empty flight-recorder ring on a VIOLATION.
echo "== calcheck -metrics-json smoke =="
metrics_out=$(go run ./cmd/calcheck -metrics-json - -spec exchanger -mode cal examples/histories/fig3-h1.txt | sed '1d')
echo "$metrics_out" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
assert doc["tool"] == "calcheck", doc
assert doc["elapsed_ns"] > 0, doc
m = doc["metrics"]
assert m["schema"] == "calgo.metrics/v1", m
for key in ("check.checks", "check.states", "check.memo_hits"):
    assert key in m["counters"], (key, m)
print("calcheck -metrics-json: valid %s document" % m["schema"])
'

echo "== calcheck -trace flight-recorder smoke =="
flight=$(go run ./cmd/calcheck -trace /dev/null -spec stack -object S -mode lin \
    examples/histories/stack-violation.txt 2>&1 >/dev/null || true)
case "$flight" in
*"flight recorder"*) echo "calcheck -trace: flight ring dumped on VIOLATION" ;;
*)
    echo "calcheck -trace did not dump a flight ring:" >&2
    echo "$flight" >&2
    exit 1
    ;;
esac

# Smoke the explainability path: on a known VIOLATION, -explain must
# render a timeline naming the first blocked operation, -dot must write
# a syntactically plausible DOT document, and -report must write a
# well-formed calgo.report/v1 JSON stamped with exit 1 — and the process
# must still exit 1.
echo "== calcheck -explain/-dot/-report smoke =="
explain_dir=$(mktemp -d)
# Every background process started below is recorded in bg_pids. On any
# exit, passing or failing midway, the trap kills whichever are still
# running, reaps them, and only then removes the scratch directory.
bg_pids=""
trap 'for p in $bg_pids; do kill -KILL "$p" 2>/dev/null || true; done; wait; rm -rf "$explain_dir"' EXIT
trap 'exit 1' HUP INT TERM
if go run ./cmd/calcheck -spec stack -object S -explain \
    -dot "$explain_dir/v.dot" -report "$explain_dir/v.json" \
    examples/histories/stack-violation.txt >"$explain_dir/v.out" 2>&1; then
    echo "calcheck on stack-violation.txt should exit 1" >&2
    exit 1
fi
grep -q "BLOCKED (first)" "$explain_dir/v.out" || {
    echo "-explain did not mark the first blocked operation:" >&2
    cat "$explain_dir/v.out" >&2
    exit 1
}
head -1 "$explain_dir/v.dot" | grep -q "^digraph" || {
    echo "-dot did not write a digraph:" >&2
    head -3 "$explain_dir/v.dot" >&2
    exit 1
}
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "calgo.report/v1", doc
assert doc["exit"] == 1, doc
runs = doc["runs"]
assert len(runs) == 1 and runs[0]["verdict"] == "VIOLATION", runs
assert "BLOCKED" in runs[0]["timeline"], runs
assert runs[0]["dot"].startswith("digraph"), runs
assert doc["metrics"]["schema"] == "calgo.metrics/v1", doc
assert doc["flight_total"] > 0 and len(doc["flight"]) > 0, doc
print("calcheck -explain/-dot/-report: VIOLATION evidence rendered, valid %s" % doc["schema"])
' "$explain_dir/v.json"

# Round-trip the report through cmd/calreport: the saved JSON must render
# as Markdown carrying the verdict and the timeline.
echo "== calreport round-trip smoke =="
go run ./cmd/calreport -o "$explain_dir/v.md" "$explain_dir/v.json"
grep -q "VIOLATION" "$explain_dir/v.md" && grep -q "BLOCKED" "$explain_dir/v.md" || {
    echo "calreport Markdown lost the violation evidence:" >&2
    head -20 "$explain_dir/v.md" >&2
    exit 1
}
echo "calreport: report JSON -> Markdown round-trip OK"

# Run every example program from a built binary: each checks its own
# claims and must exit 0 (go run would turn other exits into its own 1).
echo "== examples =="
for ex in examples/*/; do
    [ -f "$ex/main.go" ] || continue
    name=$(basename "$ex")
    go build -o "$explain_dir/example-$name" "./$ex"
    if ! "$explain_dir/example-$name" >"$explain_dir/example-$name.out" 2>&1; then
        echo "example $name failed:" >&2
        cat "$explain_dir/example-$name.out" >&2
        exit 1
    fi
    echo "example $name: OK"
done

# Smoke the specialized-monitor fast path: under -engine auto the
# unambiguous queue/stack examples must be decided by the O(n log n)
# monitor (the dispatch counter moves) with unchanged verdicts — the
# known-Sat histories exit 0, the known violations exit 1 with a
# monitor-attributed reason. The Sat queue run also serves /metrics to
# pin the Prometheus spelling, calgo_monitor_dispatch_total.
echo "== calcheck -engine auto monitor smoke =="
# The serving smokes run built binaries, so $! is the tool itself:
# killing a `go run` parent would leave its child serving for the whole
# -serve-linger.
go build -o "$explain_dir/calcheck" ./cmd/calcheck
go build -o "$explain_dir/calexplore" ./cmd/calexplore
mon_log="$explain_dir/mon-serve.log"
"$explain_dir/calcheck" -spec queue -object Q -engine auto \
    -serve 127.0.0.1:0 -serve-linger 30s \
    examples/histories/queue-fifo.txt >"$explain_dir/mon-sat.out" 2>"$mon_log" &
mon_pid=$!
bg_pids="$bg_pids $mon_pid"
url=""
i=0
while [ $i -lt 150 ]; do
    url=$(sed -n 's/.*msg="ops server listening".*url=\(http:[^ ]*\).*/\1/p' "$mon_log" | head -1)
    [ -n "$url" ] && break
    sleep 0.2
    i=$((i + 1))
done
if [ -z "$url" ]; then
    echo "calcheck -serve never announced its address:" >&2
    cat "$mon_log" >&2
    exit 1
fi
python3 -c '
import sys, urllib.request
text = urllib.request.urlopen(sys.argv[1].rstrip("/") + "/metrics", timeout=10).read().decode()
for line in text.splitlines():
    if line.startswith("calgo_monitor_dispatch_total "):
        assert float(line.split()[1]) >= 1, line
        break
else:
    raise AssertionError("calgo_monitor_dispatch_total missing from /metrics")
print("monitor fast path: calgo_monitor_dispatch_total >= 1 on the Sat queue history")
' "$url"
kill "$mon_pid" 2>/dev/null || true
wait "$mon_pid" 2>/dev/null || true
grep -q "^OK" "$explain_dir/mon-sat.out" || {
    echo "queue-fifo.txt under -engine auto did not report OK:" >&2
    cat "$explain_dir/mon-sat.out" >&2
    exit 1
}
go run ./cmd/calcheck -spec stack -object S -engine auto \
    -metrics-json "$explain_dir/mon-stack-sat.json" examples/histories/stack-lifo.txt >/dev/null
for mon_case in "queue Q queue-violation Q3" "stack S stack-violation S4"; do
    set -- $mon_case
    mon_json="$explain_dir/mon-$1-vio.json"
    if go run ./cmd/calcheck -spec "$1" -object "$2" -engine auto \
        -metrics-json "$mon_json" "examples/histories/$3.txt" >"$explain_dir/mon-vio.out" 2>&1; then
        echo "$3.txt under -engine auto should exit 1" >&2
        exit 1
    fi
    grep -q "monitor: $4" "$explain_dir/mon-vio.out" || {
        echo "$3.txt violation was not attributed to the monitor's $4 pattern:" >&2
        cat "$explain_dir/mon-vio.out" >&2
        exit 1
    }
done
python3 -c '
import json, sys
for path in sys.argv[1:]:
    c = json.load(open(path))["metrics"]["counters"]
    assert c.get("monitor.dispatch", 0) >= 1, (path, c)
    assert c.get("monitor.fallback", 0) == 0, (path, c)
print("monitor fast path: %d runs all dispatched, zero DFS fallbacks" % len(sys.argv[1:]))
' "$explain_dir/mon-stack-sat.json" "$explain_dir/mon-queue-vio.json" "$explain_dir/mon-stack-vio.json"

# The DFS takes each thread's next operation as its ready candidate and
# builds no n×n real-time order, so a long narrow history costs it
# memory linear in its length: 100,000 events of four-thread queue
# rounds (four overlapping enqueues, then four overlapping dequeues in
# FIFO order) must decide OK well inside the deadline.
echo "== calcheck -engine dfs 100k-event smoke =="
python3 -c '
import sys
out = []
for r in range(6250):
    v = 4 * r
    for t in range(1, 5):
        out.append("inv t%d Q.enq %d" % (t, v + t))
    for t in range(1, 5):
        out.append("res t%d Q.enq true" % t)
    for t in range(1, 5):
        out.append("inv t%d Q.deq ()" % t)
    for t in range(1, 5):
        out.append("res t%d Q.deq (true,%d)" % (t, v + t))
sys.stdout.write("\n".join(out) + "\n")
' >"$explain_dir/queue-100k.txt"
dfs_out=$("$explain_dir/calcheck" -spec queue -object Q -engine dfs -timeout 30s \
    "$explain_dir/queue-100k.txt" 2>&1) || {
    echo "calcheck -engine dfs on the 100k-event queue history did not exit 0:" >&2
    echo "$dfs_out" >&2
    exit 1
}
echo "$dfs_out" | grep -q "^OK" || {
    echo "calcheck -engine dfs on the 100k-event queue history did not print OK:" >&2
    echo "$dfs_out" >&2
    exit 1
}
echo "$dfs_out"

# Soak the queue stepper against the DFS: 2,000 recorded Michael–Scott
# queue runs, every other one with an injected defect, each streamed
# through the stepper and checked in batch. The batch side runs the DFS:
# under -engine auto it would run the same stepper and agree with itself.
echo "== calfuzz -soak-stream msqueue vs DFS =="
go run ./cmd/calfuzz -soak-stream 2000 -object msqueue -engine dfs

# The same soak over live priority-queue runs: each is streamed through
# the pqueue replay stepper, whose exact fallback is the DFS over the
# buffered prefix, and checked against the batch DFS.
echo "== calfuzz -soak-stream pqueue vs DFS =="
go run ./cmd/calfuzz -soak-stream 2000 -object pqueue -engine dfs

# Smoke the ops endpoint: calexplore under -serve must announce its
# address on stderr, serve parseable Prometheus exposition on /metrics
# (with the exploration's own counters) and a calgo.statusz/v1 document
# on /statusz. -serve-linger keeps the server up after the (fast)
# exploration finishes so the assertions race nothing.
echo "== calexplore -serve ops endpoint smoke =="
serve_log="$explain_dir/serve.log"
"$explain_dir/calexplore" -target exchanger -values 3,4 -serve 127.0.0.1:0 -serve-linger 30s \
    >"$explain_dir/serve.out" 2>"$serve_log" &
serve_pid=$!
bg_pids="$bg_pids $serve_pid"
url=""
i=0
while [ $i -lt 150 ]; do
    url=$(sed -n 's/.*msg="ops server listening".*url=\(http:[^ ]*\).*/\1/p' "$serve_log" | head -1)
    [ -n "$url" ] && break
    sleep 0.2
    i=$((i + 1))
done
if [ -z "$url" ]; then
    echo "calexplore -serve never announced its address:" >&2
    cat "$serve_log" >&2
    exit 1
fi
python3 -c '
import json, sys, urllib.request
base = sys.argv[1].rstrip("/")
text = urllib.request.urlopen(base + "/metrics", timeout=10).read().decode()
assert "# TYPE calgo_sched_states_total counter" in text, text[:400]
assert "calgo_go_goroutines" in text, text[:400]
st = json.load(urllib.request.urlopen(base + "/statusz", timeout=10))
assert st["schema"] == "calgo.statusz/v1", st
assert st["tool"] == "calexplore", st
assert st["run"]["states"] > 0, st
print("ops endpoint: /metrics + /statusz OK (%d states explored)" % st["run"]["states"])
' "$url"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

# Smoke the perf-trajectory bookkeeping: the first -auto run seeds
# BENCH_<date>.json in the directory, the second auto-compares against
# it and prints the delta summary.
echo "== calbench -auto smoke =="
auto_dir="$explain_dir/bench"
go run ./cmd/calbench -dur 5ms -table queues -auto "$auto_dir" >"$explain_dir/auto1.out" 2>&1
bench_file="$auto_dir/BENCH_$(date -u +%Y-%m-%d).json"
if [ ! -f "$bench_file" ]; then
    echo "calbench -auto did not write $bench_file:" >&2
    ls "$auto_dir" >&2 || true
    exit 1
fi
auto2_out=$(go run ./cmd/calbench -dur 5ms -table queues -auto "$auto_dir" 2>&1)
case "$auto2_out" in
*"delta vs baseline"*) echo "calbench -auto: seeded trajectory, then auto-compared" ;;
*)
    echo "calbench -auto second run did not compare against the seeded baseline:" >&2
    echo "$auto2_out" >&2
    exit 1
    ;;
esac

# Both -auto runs also recorded trajectory points in the run-history
# store living in the -auto directory; a regression query over it must
# name two distinct records and reproduce every per-cell delta from the
# stored rates.
go run ./cmd/calreport -store "$auto_dir" -query "regressions" \
    -o "$explain_dir/auto-query.json"
python3 -c '
import json, sys
res = json.load(open(sys.argv[1]))
assert res["schema"] == "calgo.query/v1", res
assert res["mode"] == "regressions", res
assert res["current_id"] != res["baseline_id"], res
deltas = res.get("deltas") or []
assert deltas, "regression query over two -auto runs returned no cells"
for d in deltas:
    want = (d["cur_ops_per_sec"] - d["base_ops_per_sec"]) / d["base_ops_per_sec"] * 100
    assert abs(d["delta_pct"] - want) < 1e-9, d
assert all(d["table"] == "B7" for d in deltas), deltas
print("run store: %s vs %s, %d B7 cell deltas consistent"
      % (res["current_id"], res["baseline_id"], len(deltas)))
' "$explain_dir/auto-query.json"

# Smoke the perf-trajectory path warn-only: -compare against the
# committed baseline must parse it and print a delta summary. No -gate
# here — CI machines are too noisy to fail the build on throughput.
echo "== calbench -compare smoke (warn-only) =="
compare_out=$(go run ./cmd/calbench -dur 5ms -table exchangers -compare BENCH_2026-08-06.json)
case "$compare_out" in
*"delta vs baseline"*) echo "calbench -compare: delta summary printed" ;;
*)
    echo "calbench -compare did not print a delta summary:" >&2
    echo "$compare_out" >&2
    exit 1
    ;;
esac

# The committed trajectory files are the ground truth for the query
# layer: ingest both into a fresh store (calreport does this on open)
# and assert the regression query reproduces every per-cell delta an
# independent recomputation of the two JSON documents yields.
echo "== run-history store query smoke (committed trajectories) =="
store_dir="$explain_dir/runstore"
mkdir -p "$store_dir"
cp BENCH_2026-08-06.json BENCH_2026-08-08.json "$store_dir/"
go run ./cmd/calreport -store "$store_dir" -query "regressions" \
    -o "$explain_dir/committed-query.json"
check_committed_deltas() {
    # $1: calgo.query/v1 JSON path; $2: label for the success line.
    python3 -c '
import json, sys

def cells(path):
    doc = json.load(open(path))
    out = {}
    for t in doc["tables"]:
        for r in t["rows"]:
            for i, c in enumerate(t["columns"]):
                if i < len(r["ops_per_sec"]):
                    out[(t["id"], r["name"], c)] = r["ops_per_sec"][i]
    return out

base, cur = cells("BENCH_2026-08-06.json"), cells("BENCH_2026-08-08.json")
want = {k: (cur[k] - base[k]) / base[k] * 100
        for k in base if k in cur and base[k] > 0}

res = json.load(open(sys.argv[1]))
assert res["schema"] == "calgo.query/v1", res
assert res["baseline_id"] == "bench-BENCH_2026-08-06", res
assert res["current_id"] == "bench-BENCH_2026-08-08", res
got = {(d["table"], d["row"], d["column"]): d["delta_pct"]
       for d in res.get("deltas") or []}
assert set(got) == set(want), (set(got) ^ set(want))
for k, pct in want.items():
    assert abs(got[k] - pct) < 1e-9, (k, got[k], pct)
pcts = [d["delta_pct"] for d in res["deltas"]]
assert pcts == sorted(pcts), "deltas not worst-first"
print("%s: %d per-cell deltas match the committed trajectories exactly"
      % (sys.argv[2], len(want)))
' "$1" "$2"
}
check_committed_deltas "$explain_dir/committed-query.json" "calreport -query"

# Smoke the checking daemon end to end: build cald under the race
# detector, round-trip a history through calcheck -remote, prove the
# verdict cache short-circuits a resubmission (hit counter up on
# /metrics, no second search on /runsz), exercise 429 shedding + client
# backoff, then SIGTERM the daemon mid-search and assert the journal
# resumes the still-pending job in a fresh instance.
echo "== cald daemon smoke =="
go build -race -o "$explain_dir/cald" ./cmd/cald

start_cald() {
    # $1: log file; remaining args: extra cald flags.
    # Sets cald_pid and cald_url.
    cald_log="$1"
    shift
    "$explain_dir/cald" -addr 127.0.0.1:0 "$@" >"$cald_log" 2>&1 &
    cald_pid=$!
    bg_pids="$bg_pids $cald_pid"
    cald_url=""
    i=0
    while [ $i -lt 150 ]; do
        cald_url=$(sed -n 's/.*msg="cald serving".*url=\(http:[^ ]*\).*/\1/p' "$cald_log" | head -1)
        [ -n "$cald_url" ] && break
        sleep 0.2
        i=$((i + 1))
    done
    if [ -z "$cald_url" ]; then
        echo "cald never announced its address:" >&2
        cat "$cald_log" >&2
        exit 1
    fi
}

# Instance 1: single worker with a journal and a durable run-history
# store (instance 3 reopens both); -drain 1s keeps the SIGTERM step
# below fast.
start_cald "$explain_dir/cald1.log" -journal "$explain_dir/cald.journal" \
    -store "$explain_dir/caldstore" \
    -workers 1 -queue-depth 8 -drain 1s
url1="$cald_url"
pid1="$cald_pid"

# 1. Round trip: the remote verdict must match the local one (exit 0).
"$explain_dir/calcheck" -remote "$url1" -spec exchanger examples/histories/fig3-h1.txt

# 2. Resubmit the same history: the verdict must come from the cache
#    (thread renaming aside, the canonicalized fingerprint matches) and
#    the daemon must not run a second search.
second=$("$explain_dir/calcheck" -remote "$url1" -spec exchanger examples/histories/fig3-h1.txt)
case "$second" in
*cached*) : ;;
*)
    echo "resubmission was not served from the verdict cache:" >&2
    echo "$second" >&2
    exit 1
    ;;
esac
python3 -c '
import json, sys, urllib.request
base = sys.argv[1].rstrip("/")
text = urllib.request.urlopen(base + "/metrics", timeout=10).read().decode()
for line in text.splitlines():
    if line.startswith("calgo_jobs_cache_hits_total "):
        assert float(line.split()[1]) >= 1, line
        break
else:
    raise AssertionError("calgo_jobs_cache_hits_total missing from /metrics")
runs = json.load(urllib.request.urlopen(base + "/runsz", timeout=10))
assert len(runs) == 1, "want exactly 1 executed search on /runsz, got %d" % len(runs)
rec = runs[0]
assert rec["schema"] == "calgo.run/v1", rec
assert rec["tool"] == "cald" and rec["verdict"] == "OK", rec
assert rec["labels"]["spec"] == "exchanger", rec
# /runsz is the one copy of ended jobs: /statusz carries no per-job runs.
st = json.load(urllib.request.urlopen(base + "/statusz", timeout=10))
assert not st.get("runs"), "want no runs on cald /statusz, got %r" % st.get("runs")
print("verdict cache: hit counted, no second search (1 record on /runsz, none on /statusz)")
' "$url1"

# 2b. Long-poll: GET /jobs/{id}?wait=10s on a just-submitted job answers
#     with the verdict as soon as it is decided, well before the bound;
#     a malformed wait is a 400.
python3 -c '
import json, sys, time, urllib.error, urllib.request
base = sys.argv[1].rstrip("/")
hist = ("inv t1 E.exchange 5\ninv t2 E.exchange 6\n"
        "res t1 E.exchange (true,6)\nres t2 E.exchange (true,5)\n")
r = urllib.request.Request(base + "/jobs",
                           data=json.dumps({"spec": "exchanger", "history": hist}).encode(),
                           headers={"Content-Type": "application/json"})
job = json.load(urllib.request.urlopen(r, timeout=10))
start = time.time()
got = json.load(urllib.request.urlopen(base + "/jobs/" + job["id"] + "?wait=10s", timeout=30))
took = time.time() - start
assert got["state"] == "done" and got["verdict"] == "OK", got
assert took < 5, "long-poll answered after %.1fs, want well before the 10s bound" % took
try:
    urllib.request.urlopen(base + "/jobs/" + job["id"] + "?wait=bogus", timeout=10)
    raise AssertionError("?wait=bogus was accepted")
except urllib.error.HTTPError as e:
    assert e.code == 400, e.code
print("long-poll: %s answered %s after %.3fs of a 10s wait; ?wait=bogus is 400"
      % (job["id"], got["verdict"], took))
' "$url1"

# 3. Admission control: a burst-1 instance sheds the second submission
#    with 429 + Retry-After; the client backs off, retries and
#    succeeds (exit 0 for both histories).
start_cald "$explain_dir/cald2.log" -rate 1 -burst 1
url2="$cald_url"
pid2="$cald_pid"
retry_log="$explain_dir/remote-retry.log"
"$explain_dir/calcheck" -remote "$url2" -spec exchanger \
    examples/histories/fig3-h1.txt examples/histories/fig3-h1.txt 2>"$retry_log"
if ! grep -q "backing off" "$retry_log"; then
    echo "throttled submission never hit the 429 backoff path:" >&2
    cat "$retry_log" >&2
    exit 1
fi
echo "rate limit: 429 absorbed with backoff, retry succeeded"
kill -TERM "$pid2"
wait "$pid2"

# 4. Crash-safe drain: occupy the single worker with an adversarial
#    search (last exchange response is wrong, so the checker must
#    exhaust the space), queue a fast job behind it, SIGTERM. The
#    daemon cancels the running search at the -drain deadline, journals
#    the pending job and exits 0; a fresh instance on the same journal
#    resumes and finishes it.
pending_id=$(python3 -c '
import json, sys, time, urllib.request
base = sys.argv[1].rstrip("/")

def post(req):
    r = urllib.request.Request(base + "/jobs", data=json.dumps(req).encode(),
                               headers={"Content-Type": "application/json"})
    return json.load(urllib.request.urlopen(r, timeout=10))

def get(id):
    return json.load(urllib.request.urlopen(base + "/jobs/" + id, timeout=10))

n = 18
lines = []
for i in range(n):
    lines += ["inv t%d E.exchange %d" % (2*i+1, 10*i+1),
              "inv t%d E.exchange %d" % (2*i+2, 10*i+2)]
for i in range(n):
    a, b = 10*i+2, 10*i+1
    if i == n - 1:
        b = 99999
    lines += ["res t%d E.exchange (true,%d)" % (2*i+1, a),
              "res t%d E.exchange (true,%d)" % (2*i+2, b)]
slow = post({"spec": "exchanger", "history": "\n".join(lines) + "\n"})
deadline = time.time() + 60
while get(slow["id"])["state"] != "running":
    assert time.time() < deadline, "slow job never started"
    time.sleep(0.1)
fast = post({"spec": "exchanger", "history":
             "inv t1 E.exchange 3\ninv t2 E.exchange 4\n"
             "res t1 E.exchange (true,4)\nres t2 E.exchange (true,3)\n"})
assert get(fast["id"])["state"] == "pending", get(fast["id"])
print(fast["id"])
' "$url1")
kill -TERM "$pid1"
if ! wait "$pid1"; then
    echo "cald did not exit 0 after SIGTERM:" >&2
    tail -20 "$explain_dir/cald1.log" >&2
    exit 1
fi
if ! grep -q "drained with pending jobs journaled" "$explain_dir/cald1.log"; then
    echo "cald drain did not journal the pending job:" >&2
    tail -20 "$explain_dir/cald1.log" >&2
    exit 1
fi

start_cald "$explain_dir/cald3.log" -journal "$explain_dir/cald.journal" \
    -store "$explain_dir/caldstore" -workers 1
url3="$cald_url"
pid3="$cald_pid"
python3 -c '
import json, sys, time, urllib.request
base, id = sys.argv[1].rstrip("/"), sys.argv[2]
deadline = time.time() + 60
while True:
    j = json.load(urllib.request.urlopen(base + "/jobs/" + id, timeout=10))
    if j["state"] in ("done", "canceled"):
        break
    assert time.time() < deadline, j
    time.sleep(0.1)
assert j.get("resumed"), "job was not marked resumed: %r" % j
assert j["verdict"] == "OK", j
print("journal resume: %s finished %s after restart" % (id, j["verdict"]))
' "$url3" "$pending_id"

# The restarted instance must also serve the verdict instance 1
# recorded: the pre-restart record (r-1, spec=exchanger) is answerable
# on /runsz and /queryz from the reopened store, no journal involved.
python3 -c '
import json, sys, urllib.request
base = sys.argv[1].rstrip("/")
runs = json.load(urllib.request.urlopen(
    base + "/runsz?tool=cald&label=spec:exchanger", timeout=10))
pre = [r for r in runs if r["id"] == "r-1"]
assert pre, "pre-restart record r-1 missing from /runsz: %r" % [r["id"] for r in runs]
assert pre[0]["verdict"] == "OK" and pre[0]["labels"]["mode"] == "cal", pre[0]
res = json.load(urllib.request.urlopen(base + "/queryz?tool=cald", timeout=10))
assert res["schema"] == "calgo.query/v1" and res["total"] >= 1, res
assert any(r["id"] == "r-1" for r in res["runs"]), res
print("run store: pre-restart verdict r-1 served after restart (%d records)" % len(runs))
' "$url3"
kill -TERM "$pid3"
wait "$pid3"
echo "cald smoke: round trip, cache hit, long-poll, 429 backoff, drain + journal resume + durable run history"

# Smoke the streaming API end to end under the race detector: open a
# stream against cald with a tiny fallback window, watch it over SSE
# while feeding a long pristine prefix (forcing the decided prefix to be
# shed) and then a known queue defect. The SSE watcher must deliver
# VIOLATION-at-event-k at the exact defect index, /metrics must expose
# the shedding as calgo_stream_shed_total > 0, and once the stream is
# closed its run record on /runsz must name the path that decided it.
echo "== cald /streams SSE smoke =="
start_cald "$explain_dir/cald4.log" -stream-window 32 -stream-check-every 8
url4="$cald_url"
pid4="$cald_pid"
python3 -c '
import json, sys, threading, time, urllib.request
base = sys.argv[1].rstrip("/")

req = urllib.request.Request(base + "/streams",
                             data=json.dumps({"spec": "queue"}).encode(),
                             headers={"Content-Type": "application/json"})
doc = json.load(urllib.request.urlopen(req, timeout=10))
sid = doc["id"]
assert doc["schema"] == "calgo.stream/v1" and doc["state"] == "open", doc

hit, done = {}, threading.Event()
def watch():
    resp = urllib.request.urlopen(base + "/streams/" + sid + "?watch=1", timeout=60)
    assert resp.headers.get("Content-Type") == "text/event-stream", resp.headers
    for raw in resp:
        line = raw.decode().strip()
        if not line.startswith("data: "):
            continue
        fr = json.loads(line[6:])
        if fr["verdict"]["status"] == "violation":
            hit.update(fr["verdict"])
            done.set()
            return
t = threading.Thread(target=watch, daemon=True)
t.start()

def feed(lines):
    req = urllib.request.Request(base + "/streams/" + sid + "/events",
                                 data=("\n".join(lines) + "\n").encode())
    return json.load(urllib.request.urlopen(req, timeout=30))

# 40 balanced enq/deq cycles: 160 pristine events, far past the 32-event
# window, so the decided prefix must be shed. Then one bad dequeue.
pristine = []
for i in range(40):
    pristine += ["inv t1 E.enq %d" % i, "res t1 E.enq true",
                 "inv t1 E.deq ()", "res t1 E.deq (true,%d)" % i]
mid = feed(pristine)
assert mid["verdict"]["status"] == "sat-so-far", mid["verdict"]
assert mid["verdict"]["shed"] > 0, "no shedding despite window 32: %r" % mid["verdict"]
feed(["inv t1 E.enq 40", "res t1 E.enq true",
      "inv t1 E.deq ()", "res t1 E.deq (true,99999)"])

assert done.wait(30), "violation frame never arrived over SSE"
assert hit["at_event"] == 163, "at_event = %r, want the exact defect index 163" % hit
assert hit["display"].startswith("VIOLATION-at-event-163"), hit
assert hit["engine"] == "monitor:queue", hit

text = urllib.request.urlopen(base + "/metrics", timeout=10).read().decode()
for line in text.splitlines():
    if line.startswith("calgo_stream_shed_total "):
        assert float(line.split()[1]) > 0, line
        break
else:
    raise AssertionError("calgo_stream_shed_total missing from /metrics")

# Close the stream: cald publishes its run record in the background.
closed = json.load(urllib.request.urlopen(
    urllib.request.Request(base + "/streams/" + sid + "/close", data=b""), timeout=10))
assert closed["state"] == "closed" and closed["verdict"]["final"], closed
deadline = time.time() + 10
while True:
    recs = [r for r in json.load(urllib.request.urlopen(base + "/runsz?label=mode:stream", timeout=10))
            if r["report"]["runs"][0]["name"] == sid]
    if recs:
        break
    assert time.time() < deadline, "closed stream %s never reached /runsz" % sid
    time.sleep(0.05)
assert recs[0]["labels"]["engine"] == "monitor:queue", recs[0]["labels"]
print("streaming smoke: VIOLATION-at-event-163 over SSE, shed prefix counted on /metrics, run record engine monitor:queue")
' "$url4"
kill -TERM "$pid4"
wait "$pid4"

# The same committed-trajectory regression must be answerable over HTTP:
# point a cald at the store the calreport smoke ingested and ask /queryz
# for the identical calgo.query/v1 document (plus an HTML rendering for
# browsers).
echo "== cald /queryz smoke (committed trajectories) =="
start_cald "$explain_dir/cald5.log" -store "$store_dir"
url5="$cald_url"
pid5="$cald_pid"
python3 -c '
import sys, urllib.request
base = sys.argv[1].rstrip("/")
open(sys.argv[2], "wb").write(
    urllib.request.urlopen(base + "/queryz?mode=regressions", timeout=10).read())
html = urllib.request.urlopen(base + "/queryz?mode=regressions&format=html",
                              timeout=10).read().decode()
assert "<table>" in html and "bench-BENCH_2026-08-06" in html, html[:400]
' "$url5" "$explain_dir/queryz.json"
check_committed_deltas "$explain_dir/queryz.json" "/queryz"
kill -TERM "$pid5"
wait "$pid5"

# Smoke the retention policy on a live daemon: reopen a store that
# already holds two bench trajectory points under keep-bench 1 with a
# 1s sweep interval, and watch calgo_runstore_expired_total move on
# /metrics (the sweep is the same crash-safe tombstone path the unit
# tests pin).
echo "== cald retention smoke =="
ret_dir="$explain_dir/retstore"
cp -r "$store_dir" "$ret_dir"
start_cald "$explain_dir/cald-ret.log" -store "$ret_dir" \
    -retention-keep-bench 1 -retention-interval 1s
python3 -c '
import sys, time, urllib.request
base = sys.argv[1].rstrip("/")
deadline = time.time() + 30
while True:
    text = urllib.request.urlopen(base + "/metrics", timeout=10).read().decode()
    expired = {line.split()[0]: float(line.split()[1]) for line in text.splitlines()
               if line.startswith("calgo_runstore_")}
    if expired.get("calgo_runstore_expired_total", 0) >= 1:
        assert expired.get("calgo_runstore_retained", 0) >= 1, expired
        break
    assert time.time() < deadline, "retention sweep never expired anything: %r" % expired
    time.sleep(0.5)
print("retention: calgo_runstore_expired_total = %d, retained gauge = %d"
      % (expired["calgo_runstore_expired_total"], expired["calgo_runstore_retained"]))
' "$cald_url"
kill -TERM "$cald_pid"
wait "$cald_pid"

echo "CI gate passed."
