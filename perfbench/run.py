#!/usr/bin/env python3
"""CSV in -> FD set out: the FDX end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds `fdxtool` and `fdxd` from the checkout (Release, into
.bench_build/), builds the benchmark's own programs from perfbench/,
generates the workload's inputs from --seed, runs the workload against the
real programs, checks every output, and prints a report followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json. With --trace 1 the
workload runs untraced as usual, then pb_trace sends the same inputs
through each layer's public functions, and the metrics are the per-layer
ones (spans are written as Chrome trace-event JSON to
.bench_run/<workload>/trace.json).

Workloads (see NOTES.md for why each exists):
  tall_capped      fdxtool discover --max-memory-mb=64, ~1M x 12 CSV
  wide             fdxtool discover in memory, 12k x 384 CSV
  sessions         fdxd durable memory sessions: restart replay, then a
                   depth-1 append/discover loop on 4 connections
  pipelined_reads  fdxd cached session discovers, 16 in flight on each of
                   4 connections

Exit code 0 when every check passed, 1 otherwise (the JSON line is still
printed when the workload ran), 2 on bad arguments.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN = os.path.join(ROOT, ".bench_run")
FDX_BUILD = os.path.join(BUILD, "fdx")
PB_BUILD = os.path.join(BUILD, "perfbench")
FDXTOOL = os.path.join(FDX_BUILD, "tools", "fdxtool")
FDXD = os.path.join(FDX_BUILD, "tools", "fdxd")
PB_GEN = os.path.join(PB_BUILD, "pb_gen")
PB_LOAD = os.path.join(PB_BUILD, "pb_load")
PB_TRACE = os.path.join(PB_BUILD, "pb_trace")

# The canary seed whose generated inputs must hash to checksums.json.
REF_SEED = 1

# Thread budget: every child gets FDX_THREADS explicitly. fdxtool runs
# alone with 4; fdxd runs 2 workers x 1 transform thread + 1 I/O thread,
# driven by 1 client thread.
FILE_THREADS = 4
FDXD_THREADS = 1
FDXD_WORKERS = 2
FDXD_IO_THREADS = 1

WORKLOADS = {
    "tall_capped": {"kind": "file", "rows": 1_000_000, "cols": 12,
                    "flags": ["--max-memory-mb=64"], "setups": 3},
    "wide": {"kind": "file", "rows": 12_000, "cols": 384, "flags": [],
             "setups": 5},
    "sessions": {"kind": "sessions", "cols": 16, "streams": 4,
                 "batch_rows": 1000, "prelude_batches": 25, "rounds": 50,
                 "setups": 5},
    "pipelined_reads": {"kind": "reads", "cols": 16, "streams": 4,
                        "batch_rows": 2500, "batches": 8, "window": 16,
                        "status_pct": 10, "requests_per_second": 60_000,
                        "setups": 5},
}

# Metric names and units: the end-to-end metrics every run reports and the
# per-layer metrics every traced run reports.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _BENCHMARK = json.load(f)
E2E_UNITS = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _BENCHMARK["per_layer"]}
# End-to-end metrics that only some workloads have: printed, not gated.
REPORT_UNITS = {"append_p50_ms": "ms", "append_p95_ms": "ms",
                "discover_p50_ms": "ms", "discover_p95_ms": "ms",
                "reads_per_s": "1/s", "read_p50_ms": "ms", "read_p99_ms": "ms"}


class BenchError(Exception):
    """The benchmark itself cannot run (build, input or process failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build

def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"{what} failed (exit {proc.returncode})")


def build(trace):
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no FDX source tree next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(FDX_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", ROOT, "-B", FDX_BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], "configuring FDX")
    run_quiet(["cmake", "--build", FDX_BUILD, "-j", jobs, "--target",
               "fdxtool", "fdxd"], "building fdxtool and fdxd")
    if not os.path.exists(os.path.join(PB_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", PB_BUILD,
                   "-DCMAKE_BUILD_TYPE=Release",
                   f"-DFDX_BUILD_DIR={FDX_BUILD}"], "configuring perfbench")
    targets = ["pb_gen", "pb_load"] + (["pb_trace"] if trace else [])
    run_quiet(["cmake", "--build", PB_BUILD, "-j", jobs, "--target"] +
              targets, "building perfbench")


# ------------------------------------------------------------- utilities

median = statistics.median


def percentile(values, p):
    """The p-th percentile, interpolated between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def child_env(threads, home):
    env = dict(os.environ)
    env["FDX_THREADS"] = str(threads)
    for key in ("FDX_FAULTS", "FDX_SIMD", "FDX_STORE_IO"):
        env.pop(key, None)
    # A fresh HOME/TMPDIR per set-up makes state a program persists
    # between runs show up in setup_s.
    env["HOME"] = home
    env["TMPDIR"] = home
    env["XDG_CACHE_HOME"] = os.path.join(home, ".cache")
    return env


def timed_exec(cmd, env, cwd, stdout_path):
    """Runs one child to completion; returns (wall_s, exit, rusage). A
    child still running after 150 s is killed."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(150, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def host_probes():
    """Fixed ALU and memory-touch loops, timed before the workload."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    alu = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(4):
        buf = bytearray(64 << 20)  # zero-filled: every page is faulted in
        buf[::4096] = b"\x01" * len(buf[::4096])
        del buf
    mem = time.perf_counter() - start
    return {"alu_loop_s": round(alu, 4), "mem_touch_s": round(mem, 4)}


# ---------------------------------------------------------------- inputs

def generate(spec, seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    if spec["kind"] == "file":
        rows, streams, header = spec["rows"], 1, 1
    else:
        batches = spec.get("batches") or (
            spec["prelude_batches"] + spec["rounds"])
        rows = batches * spec["batch_rows"]
        streams, header = spec["streams"], 0
    subprocess.run([PB_GEN, f"--out={out_dir}", f"--seed={seed}",
                    f"--rows={rows}", f"--cols={spec['cols']}",
                    f"--streams={streams}", f"--header={header}"],
                   check=True)
    return {f: sha256(os.path.join(out_dir, f))
            for f in sorted(os.listdir(out_dir))}


def verify_canary(name, spec, work):
    """Regenerates the reference-seed inputs and compares their hashes with
    perfbench/checksums.json, so a changed generator cannot go unnoticed."""
    canary = os.path.join(work, "canary")
    shutil.rmtree(canary, ignore_errors=True)
    got = generate(spec, REF_SEED, canary)
    shutil.rmtree(canary, ignore_errors=True)
    with open(os.path.join(HERE, "checksums.json")) as f:
        want = json.load(f).get(name)
    return got, want


def load_truth(path):
    with open(path) as f:
        truth = json.load(f)
    return {(a, fd[1]) for fd in truth["fds"] for a in fd[0]}


def fd_edges(fds):
    """FD list of {"lhs": [...], "rhs": name} -> set of (lhs, rhs) edges."""
    index = lambda n: int(n[1:])
    return {(index(a), index(fd["rhs"])) for fd in fds for a in fd["lhs"]}


def edge_f1(found, truth):
    """Directed edge F1 of the paper's §5.1."""
    hit = len(found & truth)
    if hit == 0:
        return 0.0
    precision, recall = hit / len(found), hit / len(truth)
    return 2 * precision * recall / (precision + recall)


# -------------------------------------------------------------- fdxd I/O

class Fdxd:
    """One fdxd process with the benchmark's fixed resource budget."""

    live = set()  # started and not yet reaped; main() kills leftovers

    def __init__(self, work, tag, state_dir=None):
        self.port_file = os.path.join(work, f"fdxd.{tag}.port")
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        cmd = [FDXD, f"--workers={FDXD_WORKERS}",
               f"--io-threads={FDXD_IO_THREADS}",
               f"--port-file={self.port_file}"]
        if state_dir:
            cmd.append(f"--state-dir={state_dir}")
        home = os.path.join(work, "home")
        os.makedirs(home, exist_ok=True)
        self.log = open(os.path.join(work, f"fdxd.{tag}.log"), "ab")
        self.usage = None
        self.port = None
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=child_env(FDXD_THREADS, home),
                                     cwd=work, stdout=self.log,
                                     stderr=self.log)
        Fdxd.live.add(self)

    def _try_reap(self):
        pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        if pid:
            self.usage = usage
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            Fdxd.live.discard(self)
            self.log.close()
        return bool(pid)

    def wait_ready(self, timeout=120.0):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self._try_reap():
                raise BenchError(f"fdxd exited early ({self.proc.returncode})")
            try:
                with open(self.port_file) as f:
                    text = f.read().strip()
                if text:
                    self.port = int(text)
                    return self.port
            except FileNotFoundError:
                pass
            time.sleep(0.002)
        raise BenchError("fdxd did not start")

    def proc_io(self):
        with open(f"/proc/{self.proc.pid}/io") as f:
            return {k: int(v) for k, v in
                    (line.split(":") for line in f if ":" in line)}

    def _reap(self, timeout):
        """Waits for exit; SIGKILLs the process after `timeout` seconds."""
        deadline = time.perf_counter() + timeout
        while self in Fdxd.live and not self._try_reap():
            if time.perf_counter() > deadline:
                self.proc.send_signal(signal.SIGKILL)
                deadline = float("inf")
            time.sleep(0.002)

    def kill(self):
        if self in Fdxd.live:
            self.proc.send_signal(signal.SIGKILL)
        self._reap(0)

    def shutdown(self):
        try:
            with Client(self.port) as c:
                c.call({"op": "shutdown"})
        except (OSError, BenchError):
            self.proc.send_signal(signal.SIGTERM)
        self._reap(60)
        return self.proc.returncode in (0, 3)


class Client:
    """Sequential line-delimited JSON client for untimed set-up traffic."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()

    def call_raw(self, request):
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("fdxd closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def call(self, request):
        return json.loads(self.call_raw(request))


def batch_text(lines, b, batch_rows):
    return "".join(lines[b * batch_rows:(b + 1) * batch_rows])


def fill_sessions(port, spec, data, batches, check):
    """Opens one memory session per stream, appends `batches` batches to
    each and runs one computed discover per session. Returns (ids,
    discover response bytes, acknowledged rows)."""
    schema = [f"A{c}" for c in range(spec["cols"])]
    ids, answers, acked = [], [], []
    with Client(port) as c:
        for s in range(spec["streams"]):
            with open(os.path.join(data, f"s{s}.csv")) as f:
                lines = f.readlines()
            r = c.call({"op": "open", "schema": schema})
            check(r.get("ok") is True, f"open: {r}")
            sid = r["session"]
            total = 0
            for b in range(batches):
                r = c.call({"op": "append", "session": sid,
                            "csv": batch_text(lines, b, spec["batch_rows"])})
                check(r.get("ok") is True, f"append: {r}")
                total = r.get("total_rows", -1)
            check(total == batches * spec["batch_rows"], "acknowledged rows")
            ids.append(sid)
            acked.append(total)
        for sid in ids:
            answers.append(c.call_raw({"op": "discover", "session": sid}))
    return ids, answers, acked


# ------------------------------------------------------------- workloads

class Checks:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def ops(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.append(what)


def run_file(spec, work, data, check, args):
    """fdxtool discover: spec["setups"] first runs, each from a fresh copy of
    the CSV and a fresh HOME, then timed runs for --seconds."""
    csv_src = os.path.join(data, "s0.csv")
    cmd_tail = ["--format=json", "--stable"] + spec["flags"]
    outputs, setups, timed, usages = [], [], [], []
    for rep in range(spec["setups"]):
        home = os.path.join(work, f"setup{rep}")
        shutil.rmtree(home, ignore_errors=True)
        os.makedirs(home)
        csv = os.path.join(home, "input.csv")
        shutil.copyfile(csv_src, csv)
        out = os.path.join(home, "out.json")
        wall, code, usage = timed_exec([FDXTOOL, "discover", csv] + cmd_tail,
                                       child_env(FILE_THREADS, home), home,
                                       out)
        check(code == 0, f"setup fdxtool exit {code}")
        setups.append(wall)
        outputs.append(out)
    start = time.perf_counter()
    while len(timed) < 3 or time.perf_counter() - start < args.seconds:
        out = os.path.join(home, f"out{len(timed)}.json")
        wall, code, usage = timed_exec([FDXTOOL, "discover", csv] + cmd_tail,
                                       child_env(FILE_THREADS, home), home,
                                       out)
        check(code == 0, f"fdxtool exit {code}")
        timed.append(wall)
        usages.append(usage)
        outputs.append(out)
    texts = [open(p, "rb").read() for p in outputs]
    check(all(t == texts[0] for t in texts),
          "FD output differs between invocations")
    result = json.loads(texts[0]) if texts[0] else {"fds": []}
    metrics = {
        "setup_s": median(setups),
        "csv_to_fds_s": median(timed),
        "peak_rss_mb": median(u.ru_maxrss / 1024.0 for u in usages),
        "fd_f1": edge_f1(fd_edges(result["fds"]),
                         load_truth(os.path.join(data, "truth.json"))),
    }
    detail = {
        "invocations": len(setups) + len(timed),
        "setup_runs_s": [round(v, 4) for v in setups],
        "timed_runs_s": [round(v, 4) for v in timed],
        "child_minflt": median(u.ru_minflt for u in usages),
        "child_sys_s": round(median(u.ru_stime for u in usages), 4),
        "child_user_s": round(median(u.ru_utime for u in usages), 4),
    }
    return metrics, detail, {"csv": csv, "home": home, "output": outputs[-1]}


def run_sessions(spec, work, data, check, args):
    state = os.path.join(work, "state")
    shutil.rmtree(state, ignore_errors=True)
    prelude = spec["prelude_batches"]
    server = Fdxd(work, "prelude", state)
    try:
        port = server.wait_ready()
        ids, before, acked = fill_sessions(port, spec, data, prelude, check)
    finally:
        server.kill()
    setups = []
    for rep in range(spec["setups"]):
        server = Fdxd(work, f"restart{rep}", state)
        try:
            port = server.wait_ready()
            with Client(port) as c:
                after = [c.call_raw({"op": "discover", "session": sid})
                         for sid in ids]
            setups.append(time.perf_counter() - server.started)
            for sid, a, b, rows in zip(ids, after, before, acked):
                check(json.loads(a).get("rows") == rows,
                      f"session {sid} lost acknowledged rows")
                check(a == b, f"session {sid} discover changed across restart")
        except BaseException:
            server.kill()
            raise
        if rep + 1 < spec["setups"]:
            server.kill()
    rounds = spec["rounds"]
    stats_path = os.path.join(work, "loop.json")
    io_before = server.proc_io()
    try:
        loop = subprocess.run(
            [PB_LOAD, "sessions", f"--port={port}", f"--ids={','.join(ids)}",
             f"--data={data}", f"--batch-rows={spec['batch_rows']}",
             f"--first-batch={prelude}", f"--rounds={rounds}",
             f"--out={stats_path}"], timeout=150)
        io_after = server.proc_io()
        with Client(port) as c:
            status = c.call({"op": "status"})
    finally:
        check(server.shutdown(), "fdxd shutdown")
    check(loop.returncode == 0, f"pb_load exit {loop.returncode}")
    with open(stats_path) as f:
        stats = json.load(f)
    if stats["first_error"]:
        log(f"first failed response: {stats['first_error']}")
    check.ops(stats["attempted"], stats["failed"], "session requests failed")
    truth = load_truth(os.path.join(data, "truth.json"))
    final_fds, appended = [], 0
    for s in range(len(ids)):
        with open(os.path.join(data, f"final{s}.json")) as f:
            final_fds.append(json.load(f)["fds"])
        with open(os.path.join(data, f"s{s}.csv")) as f:
            lines = f.readlines()
        appended += sum(len(batch_text(lines, b, spec["batch_rows"]))
                        for b in range(prelude, prelude + rounds))
    f1s = [edge_f1(fd_edges(fds), truth) for fds in final_fds]
    lat = stats["latency_ms"]
    metrics = {
        "setup_s": median(setups),
        "csv_to_fds_s": median(lat["round"]) / 1000.0,
        "peak_rss_mb": server.usage.ru_maxrss / 1024.0,
        "fd_f1": statistics.fmean(f1s),
    }
    detail = {
        "rounds_per_connection": rounds,
        "loop_wall_s": round(stats["wall_s"], 4),
        "setup_runs_s": [round(v, 4) for v in setups],
        "append_p50_ms": percentile(lat["append"], 50),
        "append_p95_ms": percentile(lat["append"], 95),
        "discover_p50_ms": percentile(lat["discover"], 50),
        "discover_p95_ms": percentile(lat["discover"], 95),
        "samples_per_op": len(lat["append"]),
        "fdxd_minflt": server.usage.ru_minflt,
        "fdxd_sys_s": round(server.usage.ru_stime, 4),
    }
    return metrics, detail, {"status": status, "appended_bytes": appended,
                             "wchar": io_after["wchar"] - io_before["wchar"],
                             "final_fds": final_fds}


def run_reads(spec, work, data, check, args):
    setups, primed = [], None
    server = None
    for rep in range(spec["setups"]):
        if server is not None:
            check(server.shutdown(), "fdxd shutdown")
        server = Fdxd(work, f"setup{rep}")
        try:
            port = server.wait_ready()
            ids, answers, _ = fill_sessions(port, spec, data,
                                            spec["batches"], check)
            setups.append(time.perf_counter() - server.started)
        except BaseException:
            server.kill()
            raise
        check(primed is None or answers == primed,
              "primed discover differs between set-ups")
        primed = answers
    for s, answer in enumerate(primed):
        check(json.loads(answer).get("ok") is True, f"prime discover {s}")
        with open(os.path.join(work, f"primed{s}.json"), "wb") as f:
            f.write(answer)
    requests = spec["requests_per_second"] * args.seconds
    stats_path = os.path.join(work, "reads.json")
    try:
        loop = subprocess.run(
            [PB_LOAD, "reads", f"--port={port}", f"--ids={','.join(ids)}",
             f"--expect={work}", f"--requests={requests}",
             f"--window={spec['window']}",
             f"--status-pct={spec['status_pct']}", f"--seed={args.seed}",
             f"--out={stats_path}"], timeout=150)
        with Client(port) as c:
            status = c.call({"op": "status"})
    finally:
        check(server.shutdown(), "fdxd shutdown")
    check(loop.returncode == 0, f"pb_load exit {loop.returncode}")
    with open(stats_path) as f:
        stats = json.load(f)
    if stats["first_error"]:
        log(f"first failed response: {stats['first_error']}")
    check.ops(stats["attempted"], stats["failed"], "read requests failed")
    truth = load_truth(os.path.join(data, "truth.json"))
    f1s = [edge_f1(fd_edges(json.loads(a)["fds"]), truth) for a in primed]
    lat = [v for values in stats["latency_ms"].values() for v in values]
    # The median read, not the loop's wall time: host stalls stretch the
    # tail and the throughput far more than the typical request.
    metrics = {
        "setup_s": median(setups),
        "csv_to_fds_s": percentile(lat, 50) / 1000.0,
        "peak_rss_mb": server.usage.ru_maxrss / 1024.0,
        "fd_f1": statistics.fmean(f1s),
    }
    detail = {
        "setup_runs_s": [round(v, 4) for v in setups],
        "requests": stats["attempted"],
        "loop_wall_s": round(stats["wall_s"], 4),
        "reads_per_s": stats["attempted"] / stats["wall_s"],
        "read_p50_ms": percentile(lat, 50),
        "read_p99_ms": percentile(lat, 99),
        "fdxd_minflt": server.usage.ru_minflt,
        "fdxd_sys_s": round(server.usage.ru_stime, 4),
    }
    return metrics, detail, {"status": status,
                             "primed": [json.loads(a) for a in primed]}


# ----------------------------------------------------------- traced run

def run_trace(args, threads, work):
    """Runs pb_trace; returns its metrics (the last stdout line)."""
    home = os.path.join(work, "home")
    os.makedirs(home, exist_ok=True)
    proc = subprocess.run([PB_TRACE] + args, cwd=work, stdout=subprocess.PIPE,
                          text=True, env=child_env(threads, home),
                          timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"pb_trace exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    metrics = dict.fromkeys(LAYER_UNITS, 0)
    metrics.update(json.loads(lines[-1]))
    return metrics


def fd_set(fds):
    return sorted((tuple(fd["lhs"]), fd["rhs"]) for fd in fds)


def traced_metrics(spec, work, data, metrics, detail, extra, check):
    """Sends the workload's inputs through the layers with spans on and
    returns every per-layer metric (0 for layers the workload skips)."""
    trace_json = os.path.join(work, "trace.json")
    if spec["kind"] == "file":
        fds_out = os.path.join(work, "trace_fds.json")
        cap = [f for f in spec["flags"] if f.startswith("--max-memory-mb=")]
        args = ["file", f"--csv={extra['csv']}", f"--trace-out={trace_json}",
                f"--fds-out={fds_out}",
                f"--store-dir={os.path.join(work, 'trace_store')}"]
        if cap:
            args.append("--cap-mb=" + cap[0].split("=", 1)[1])
        m = run_trace(args, FILE_THREADS, work)
        with open(fds_out, "rb") as a, open(extra["output"], "rb") as b:
            check(a.read() == b.read(),
                  "traced FD output differs from fdxtool")
        if cap:
            out = os.path.join(extra["home"], "in_memory.json")
            _, code, _ = timed_exec(
                [FDXTOOL, "discover", extra["csv"], "--format=json",
                 "--stable"], child_env(FILE_THREADS, extra["home"]),
                extra["home"], out)
            with open(out, "rb") as a, open(extra["output"], "rb") as b:
                check(code == 0 and a.read() == b.read(),
                      "capped --stable JSON differs from the in-memory engine")
        check(m["store.mmap_fallbacks"] == 0, "store fell back from mmap")
        m["trace.overhead"] = (m["trace.wall_s"] - metrics["csv_to_fds_s"]) \
            / metrics["csv_to_fds_s"]
        return m

    sessions = spec["kind"] == "sessions"
    batches = (spec["prelude_batches"] + spec["rounds"]) if sessions \
        else spec["batches"]
    discover_from = spec["prelude_batches"] if sessions else batches
    fds_out = os.path.join(work, "trace_fds.json")
    m = run_trace(["sessions", f"--data={data}",
                   f"--streams={spec['streams']}", f"--cols={spec['cols']}",
                   f"--batch-rows={spec['batch_rows']}",
                   f"--batches={batches}", f"--discover-from={discover_from}",
                   f"--trace-out={trace_json}", f"--fds-out={fds_out}"],
                  FDXD_THREADS, work)
    with open(fds_out) as f:
        traced = [fd_set(json.loads(line)["fds"]) for line in f]
    served = extra["final_fds"] if sessions else \
        [p["fds"] for p in extra["primed"]]
    check(traced == [fd_set(fds) for fds in served],
          "traced FD sets differ from fdxd's")
    status = extra["status"]
    cache = status["cache"]
    m["service.cache_hit_ratio"] = cache["hits"] / max(
        1, cache["hits"] + cache["misses"])
    m["service.rejected"] = status["queue"]["rejected"]
    m["service.shed"] = sum(status["shed"].values())
    if sessions:
        m["service.bytes_written_per_input_byte"] = \
            extra["wchar"] / extra["appended_bytes"]
        m["service.append_other_ms"] = detail["append_p50_ms"] - \
            1000 * m["append_path_s"]
        m["service.discover_wait_ms"] = detail["discover_p50_ms"] - \
            1000 * m["core.current_fds_s"]
    return m


RUNNERS = {"file": run_file, "sessions": run_sessions, "reads": run_reads}


# ------------------------------------------------------------------ main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    name, spec = args.workload, WORKLOADS[args.workload]

    try:
        build(args.trace == 1)
    except (BenchError, OSError) as e:
        log(f"perfbench: {e}")
        return 1

    work = os.path.join(RUN, name)
    shutil.rmtree(work, ignore_errors=True)
    data = os.path.join(work, "in")
    check = Checks()
    steal0 = steal_ticks()
    try:
        got, want = verify_canary(name, spec, work)
        check(got == want, "generator output differs from checksums.json")
        inputs = generate(spec, args.seed, data)
        probes = host_probes()
        metrics, detail, extra = RUNNERS[spec["kind"]](
            spec, work, data, check, args)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: {name}: {e}")
        return 1
    finally:
        for server in list(Fdxd.live):
            server.kill()

    nproc = len(os.sched_getaffinity(0))
    if spec["kind"] == "file":
        budget = {"fdx_threads": FILE_THREADS, "threads_total": FILE_THREADS}
    else:
        budget = {"fdx_threads": FDXD_THREADS, "fdxd_workers": FDXD_WORKERS,
                  "fdxd_io_threads": FDXD_IO_THREADS, "client_threads": 1,
                  "threads_total": FDXD_WORKERS * FDXD_THREADS +
                  FDXD_IO_THREADS + 1}
    budget["nproc"] = nproc
    budget["over_nproc"] = budget["threads_total"] > nproc
    probes["steal_ticks"] = steal_ticks() - steal0

    layer = None
    if args.trace == 1:
        try:
            layer = traced_metrics(spec, work, data, metrics, detail,
                                   extra, check)
        except (BenchError, OSError, subprocess.SubprocessError) as e:
            log(f"perfbench: {name}: traced run: {e}")
            return 1

    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for key, value in metrics.items():
        print(f"  {key:<24} {value:>14.6g} {E2E_UNITS[key]}")
    for key, value in detail.items():
        if key in REPORT_UNITS:
            print(f"  {key:<24} {value:>14.6g} {REPORT_UNITS[key]}")
        else:
            print(f"  {key:<24} {value}")
    error_rate = check.failed / max(1, check.attempted)
    print(f"  {'error_rate':<24} {error_rate:>14.6g} ratio "
          f"({check.failed} of {check.attempted} attempted)")
    print("inputs " + json.dumps(inputs))
    print("budget " + json.dumps(budget))
    print("probes " + json.dumps(probes))
    if budget["over_nproc"]:
        print(f"WARNING: {budget['threads_total']} threads exceed nproc "
              f"{nproc}")
    for error in check.errors:
        print(f"CHECK FAILED: {error}")
    if layer is None:
        out = {k: {"value": v, "unit": E2E_UNITS[k]}
               for k, v in metrics.items()}
    else:
        out = {k: {"value": layer[k], "unit": u}
               for k, u in LAYER_UNITS.items()}
    print(json.dumps({"correct": check.failed == 0,
                      "attempted": check.attempted,
                      "failed": check.failed, "metrics": out}))
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
