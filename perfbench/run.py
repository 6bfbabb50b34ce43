#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <paper_grid|serve_generate|serve_mixed|all>
                             --seed <n> --seconds <s> --trace <0|1>

Prints a human-readable report (every metric by name and unit, with sample
counts and build provenance), then, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics; --trace 1 makes a separate traced run and reports the
per-layer metrics. Exits non-zero when an output check fails or the run cannot
complete. See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
RUNS = os.path.join(ROOT, ".bench_runs")
OUT = os.path.join(ROOT, ".bench_out")

STREAM_WINDOW = 64  # The protocol's default window and chunk.
STREAM_CHUNK = 16
STREAM_COUNT = 2 * STREAM_WINDOW
GRID_SETUPS = 21  # Grid set-up processes per untraced paper_grid run.
SERVE_SETUPS = 2  # Set-ups per untraced serve run; setup_s is their median.
# An untraced serve run alternates this many cold rounds and timed segments,
# so that cold and warm figures both average over the whole run.
ROUNDS = 5
RUN_DEADLINE_S = 170  # Every run ends (or fails) within this, after the build.

GRID, SG, SM = "paper_grid", "serve_generate", "serve_mixed"
WORKLOAD_NAMES = [GRID, SG, SM]

# Which end-to-end metric each layer metric should move, and where it should
# not: (should move, predicted unchanged). Printed beside traced results.
# methods.fit_s.<Method> and measures.<Measure>_s share their group's entry.
LAYER_MAP = {
    "data.prepare_s": ("cold_ms@%s (tiny)" % GRID, "serve_*"),
    "methods.fit_s": ("cold_ms,cpu_ms_per_op@%s; setup_s@serve_*" % GRID, "warm_ms@" + GRID),
    "methods.train_steps": ("cold_ms,cpu_ms_per_op@%s; setup_s@serve_*" % GRID, "-"),
    "methods.generate_s": ("warm_ms@%s; cold_ms,warm_ms@%s" % (GRID, SG), "-"),
    "methods.restore_s": ("warm_ms@%s; cold_ms@serve_*" % GRID, "-"),
    "store.save_s": ("cold_ms@" + GRID, "serve_* timed phase"),
    "store.save_mb": ("cold_ms@" + GRID, "serve_* timed phase"),
    "store.load_s": ("warm_ms@%s; cold_ms@serve_*" % GRID, "warm_ms@" + SG),
    "store.load_mb": ("warm_ms@%s; cold_ms@serve_*" % GRID, "warm_ms@" + SG),
    "store.cache_hit_ratio": ("warm_ms@" + SG, GRID),
    "embed.fit_s": ("warm_ms@%s,%s" % (GRID, SM), SG),
    "embed.fits": ("warm_ms@%s,%s" % (GRID, SM), SG),
    "measures": ("warm_ms@%s (largest share),%s; cold_ms@%s" % (GRID, SM, GRID), SG),
    "harness.cell_s_p50": ("cold_ms@%s (slowest cell bounds it)" % GRID, "-"),
    "harness.cell_s_max": ("cold_ms@%s (slowest cell bounds it)" % GRID, "-"),
    "harness.self_s": ("warm_ms@" + GRID, "-"),
    "grid.parallel_efficiency": ("cold_ms,warm_ms@" + GRID, "serve_*"),
    "grid.overhead_s": ("cold_ms,warm_ms@" + GRID, "serve_*"),
    "pool.tasks_executed": ("cpu_ms_per_op", "-"),
    "pool.idle_waits": ("cpu_ms_per_op", "-"),
    "ag.allocs.steady_state": ("cpu_ms_per_op,peak_rss_mb", "-"),
    "ag.arena.bytes_peak": ("cpu_ms_per_op,peak_rss_mb", "-"),
    "serve.ping_ms": ("warm_ms@" + SG, GRID),
    "serve.ack_ms": ("warm_ms,ops_per_s@serve_*", GRID),
    "serve.job_s": ("warm_ms,ops_per_s@serve_*", GRID),
    "serve.wait_share": ("warm_ms,ops_per_s@serve_*", GRID),
    "serve.jobs_total": ("-", GRID),
    "streameval.update_s": ("warm_ms@" + SM, "%s,%s" % (SG, GRID)),
    "streameval.verify_s": ("warm_ms@" + SM, "%s,%s" % (SG, GRID)),
    "trace.coverage": ("-", "-"),
    "obs.trace_overhead": ("-", "-"),
}

# Layer metrics a workload's own traffic does not reach. Its traced run
# measures them with a probe on the workload's own trained models, so that no
# per-layer time reads a constant 0; the report marks them "probe".
HARNESS_GRID = ("harness.", "grid.")
PROBED = {
    GRID: ("serve.", "store.cache_hit_ratio", "streameval."),
    SG: ("embed.", "measures.", "streameval.") + HARNESS_GRID,
    SM: HARNESS_GRID,
}


def layer_map(name):
    if name.startswith("methods.fit_s."):
        return LAYER_MAP["methods.fit_s"]
    if name.startswith("measures."):
        return LAYER_MAP["measures"]
    return LAYER_MAP[name]


def metric_lists():
    """(end-to-end, per-layer) [(name, unit)] from BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read BENCHMARK.json: %r" % (e,))
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def report_unit(name):
    """Unit of a report line, from its name."""
    base = name.split(".")[0]
    if base in ("samples", "attempted", "failed", "rows", "jobs_served", "spans"):
        return "count"
    for suffix, unit in (("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("_ratio", "1")):
        if base.endswith(suffix):
            return unit
    return ""


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The run could not complete; no result is printed."""


class Deadline(Exception):
    pass


def threads_for_program():
    return max(1, min(4, os.cpu_count() or 1))


# ---------------------------------------------------------------- build ----

def build():
    """Configures and builds tsg_perfbench and tsgd from this checkout."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(threads_for_program())
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "tsg_perfbench", "tsgd"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    tool = os.path.join(BUILD, "tsg_perfbench")
    tsgd = os.path.join(BUILD, "tsgbench", "tools", "tsgd")
    for path in (tool, tsgd):
        if not os.access(path, os.X_OK):
            raise BenchError("missing build output " + path)
    return tool, tsgd


def program_info(tool):
    """Methods, datasets, measure suite, backend and threads, from the tool."""
    out = subprocess.run([tool, "info"], capture_output=True, text=True, env=program_env())
    if out.returncode != 0:
        raise BenchError("tsg_perfbench info exited %d" % out.returncode)
    return json.loads(out.stdout)


def provenance(info, args):
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and not line.startswith(("#", "//")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        version = out.stdout.splitlines()[0] if out.stdout else ""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in [cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")]
                     if x)
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        sha = out.stdout.strip() if out.returncode == 0 else None
    return {
        "git_sha": sha,
        "source_digest": source_digest(),
        "compiler": version or compiler,
        "build_type": build_type,
        "flags": flags,
        "backend": info["backend"],
        "suite": info["suite"],
        "nproc": os.cpu_count(),
        "TSG_THREADS": info["threads"],
        "scale": 1.0,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def source_digest():
    """sha256 over the program's sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "bench", "tools", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def program_env(**extra):
    env = dict(os.environ)
    env["TSG_THREADS"] = str(threads_for_program())
    env["TSGBENCH_SCALE"] = "1"
    for key in ("TSGBENCH_SEED", "TSGBENCH_STORE_DIR", "TSGBENCH_OUT"):
        env.pop(key, None)
    env.update(extra)
    return env


# ----------------------------------------------------------- paper_grid ----

def grid_setups(tool, args, rundir, ledger, first, count):
    """Wall time of `count` whole set-up processes, start to exit."""
    seconds = []
    for i in range(first, first + count):
        root = os.path.join(rundir, "setup%d" % i)
        start = time.perf_counter()
        proc = subprocess.run([tool, "setup", "--seed=%d" % args.seed, "--root=" + root],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              env=program_env(), timeout=60)
        seconds.append(time.perf_counter() - start)
        lines = proc.stdout.strip().splitlines()
        ok = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        ledger.op("setup", "process", ok)
        ledger.check_once("setup.ok", ok, "setup exited %d: %s" % (proc.returncode,
                                                                  proc.stdout[-200:]))
        shutil.rmtree(root, ignore_errors=True)
    return seconds


def run_paper_grid(tool, tsgd, info, args, rundir, trace_out):
    ledger = Ledger()
    metrics, report = {}, {}
    # Half the set-ups run before the grid and half after, so that a burst of
    # load from outside the benchmark reaches at most half the samples.
    setups = [] if args.trace else grid_setups(tool, args, rundir, ledger, 0,
                                               GRID_SETUPS // 2)
    cmd = [tool, "grid", "--seed=%d" % args.seed, "--root=" + rundir]
    if args.trace:
        cmd += ["--trace", "--trace_out=" + trace_out]
    with open(os.path.join(rundir, "grid.log"), "w") as err:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                              env=program_env(), timeout=RUN_DEADLINE_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("grid tool exited %d without a result" % proc.returncode)
    raw = json.loads(lines[-1])
    for c in raw["checks"]:
        ledger.check_once(c["name"], c["ok"], c["detail"])
    ledger.check("grid.exit_code", proc.returncode == (0 if raw["correct"] else 1),
                 "exit %d" % proc.returncode)
    metrics.update(raw["metrics"])
    report.update(raw["report"])
    if not args.trace:
        setups += grid_setups(tool, args, rundir, ledger, len(setups),
                              GRID_SETUPS - len(setups))
        metrics["setup_s"] = statistics.median(setups)
        report["samples.setup"] = len(setups)
    if args.trace:
        metrics.update(grid_serve_probe(tsgd, info, args, rundir, ledger))
    return finish(ledger, metrics, report, raw["attempted"], raw["failed"])


def finish(ledger, metrics, report, attempted=0, failed=0):
    """A workload's result: the ledger's counts added to the program's own."""
    attempted += sum(ledger.attempted.values())
    failed += sum(ledger.failed.values())
    report["failed_ratio"] = failed / attempted if attempted else 0.0
    for key in sorted(ledger.attempted):
        report["attempted." + key] = ledger.attempted[key]
        report["failed." + key] = ledger.failed.get(key, 0)
    return {"metrics": metrics, "report": report, "checks": ledger.checks,
            "attempted": attempted, "failed": failed}


# --------------------------------------------------------- serve client ----

class Connection:
    """One blocking line-JSON session with tsgd."""

    def __init__(self, path, timeout=60.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def call(self, request):
        self.sock.sendall((json.dumps(request, separators=(",", ":")) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the session")
        return json.loads(line)

    def job(self, spec):
        """Submits one job and waits for it: (reply, t_submit, t_ack, t_done)."""
        t0 = time.perf_counter()
        ack = self.call({"cmd": "submit", "job": spec})
        t1 = time.perf_counter()
        if not ack.get("ok"):
            return ack, t0, t1, t1
        reply = self.call({"cmd": "result", "job": ack["job"], "wait": True})
        return reply, t0, t1, time.perf_counter()

    def close(self):
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


class Daemon:
    """A tsgd process on a private socket, out directory and store."""

    def __init__(self, tsgd, rundir, name, **env):
        self.dir = os.path.join(rundir, name)
        os.makedirs(self.dir)
        # Relative to ROOT (the cwd of both ends) so the socket path stays
        # under the sockaddr_un length limit wherever the checkout lives.
        self.socket = os.path.relpath(os.path.join(self.dir, "d.sock"), ROOT)
        self.store = env.get("TSGBENCH_STORE_DIR",
                             os.path.join(self.dir, "out", "model_store"))
        self.log_path = os.path.join(self.dir, "tsgd.log")
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [tsgd, "--socket=" + self.socket, "--max_inflight=3",
             "--max_inflight_per_tenant=3"],
            cwd=ROOT, stdout=self.log, stderr=self.log,
            env=program_env(TSGBENCH_OUT=os.path.join(self.dir, "out"), **env))

    def wait_listening(self, timeout=30.0):
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            with open(self.log_path) as f:
                if "listening" in f.read():
                    return
            if self.proc.poll() is not None:
                raise BenchError("tsgd exited %d before listening" % self.proc.returncode)
            time.sleep(0.002)
        raise BenchError("tsgd did not report listening")

    def cpu_seconds(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for tsgd")

    def metrics(self):
        conn = Connection(self.socket)
        try:
            reply = conn.call({"cmd": "metrics"})
        finally:
            conn.close()
        if not reply.get("ok"):
            raise BenchError("METRICS failed: %s" % reply)
        return reply["metrics"]

    def shutdown(self):
        """Sends shutdown and returns tsgd's exit code."""
        conn = Connection(self.socket)
        try:
            conn.call({"cmd": "shutdown"})
        finally:
            conn.close()
        code = self.proc.wait(timeout=60)
        self.log.close()
        return code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self.log.closed:
            self.log.close()


class Ledger:
    """Attempted/failed counts per phase and request kind, plus checks."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = {}
        self.failed = {}
        self.checks = []
        self.digests = {}
        self.scores = {}

    def op(self, phase, kind, ok):
        key = phase + "." + kind
        with self.lock:
            self.attempted[key] = self.attempted.get(key, 0) + 1
            if not ok:
                self.failed[key] = self.failed.get(key, 0) + 1
        return ok

    def check(self, name, ok, detail=""):
        with self.lock:
            self.checks.append((name, bool(ok), "" if ok else detail))
        if not ok:
            log("CHECK FAILED %s: %s" % (name, detail))
        return ok

    def same_digest(self, key, digest):
        with self.lock:
            first = self.digests.setdefault(key, digest)
        self.check_once("generate.repeat_digest", first == digest,
                        "%s: %s != %s" % (key, digest, first))

    def same_scores(self, cell, scores):
        with self.lock:
            first = self.scores.setdefault(cell, scores)
        self.check_once("evaluate.repeat_scores", first == scores,
                        "%s scores changed between repeats" % (cell,))

    def check_once(self, name, ok, detail):
        # Record one entry per check name for passes, every failure in full.
        if ok:
            with self.lock:
                if any(c[0] == name for c in self.checks):
                    return
        self.check(name, ok, detail)


def check_generate(ledger, phase, spec, reply):
    ok = reply.get("ok") is True and reply.get("state") == "done"
    ledger.op(phase, "generate", ok)
    ledger.check_once("generate.ok", ok, str(reply)[:200])
    if not ok:
        return False
    ledger.check_once("generate.count", reply.get("count") == spec["count"],
                      "asked %d, got %s" % (spec["count"], reply.get("count")))
    ledger.same_digest((spec["method"], spec["dataset"], spec["gen_seed"], spec["count"]),
                       reply.get("digest"))
    return True


def check_evaluate(ledger, phase, spec, reply, suite):
    ok = reply.get("ok") is True and reply.get("state") == "done"
    ledger.op(phase, "evaluate", ok)
    ledger.check_once("evaluate.ok", ok, str(reply)[:200])
    if not ok:
        return False
    scores = reply.get("scores", {})
    finite = all(isinstance(v.get("mean"), (int, float)) and math.isfinite(v["mean"]) and
                 isinstance(v.get("stddev"), (int, float)) and math.isfinite(v["stddev"])
                 for v in scores.values())
    ledger.check_once("evaluate.suite_scores", list(scores) == suite and finite,
                      "%s: %s" % (spec["method"], sorted(scores)))
    ledger.same_scores((spec["method"], spec["dataset"]), json.dumps(scores))
    return True


def check_stream(ledger, phase, spec, reply):
    ok = reply.get("ok") is True and reply.get("state") == "done"
    ledger.op(phase, "stream_eval", ok)
    ledger.check_once("stream_eval.ok", ok, str(reply)[:200])
    if not ok:
        return False
    ledger.check_once("stream_eval.exact", reply.get("exact") is True, str(reply)[:200])
    ledger.check_once("stream_eval.series", reply.get("series") == spec["count"] and
                      reply.get("windows") == spec["count"] // spec["window"],
                      str(reply)[:200])
    return True


def models(info):
    return [(m, d) for d in info["serve_datasets"] for m in info["methods"]]


def serve_setup(tsgd, info, rundir, name, ledger, gen_base):
    """Daemon start -> listening -> 20 fits -> one generate per model.

    Returns (daemon, setup seconds, {model: first-generate latency in ms},
    fit replies).
    """
    start = time.perf_counter()
    daemon = Daemon(tsgd, rundir, name)
    try:
        daemon.wait_listening()
        conn = Connection(daemon.socket)
        try:
            jobs = []
            for method, dataset in models(info):
                spec = {"kind": "fit", "tenant": "setup", "method": method,
                        "dataset": dataset}
                ack = conn.call({"cmd": "submit", "job": spec})
                if ack.get("ok") is not True:
                    ledger.op("setup", "fit", False)
                    ledger.check("setup.fit_accepted", False, str(ack))
                    continue
                jobs.append((method, dataset, ack["job"]))
            fits = {}
            for method, dataset, job in jobs:
                reply = conn.call({"cmd": "result", "job": job, "wait": True})
                ok = reply.get("ok") is True and reply.get("state") == "done"
                ledger.op("setup", "fit", ok)
                ledger.check_once("setup.fit_ok", ok, str(reply)[:200])
                fits[(method, dataset)] = reply
            cold_ms = first_generates(conn, info, ledger, "setup", gen_base)
        finally:
            conn.close()
        return daemon, time.perf_counter() - start, cold_ms, fits
    except BaseException:
        daemon.kill()
        raise


def first_generates(conn, info, ledger, phase, gen_base):
    """One generate per model, in order: {model: latency in ms}."""
    cold_ms = {}
    for method, dataset in models(info):
        spec = {"kind": "generate", "tenant": phase, "method": method,
                "dataset": dataset, "count": info["serve_count"], "gen_seed": gen_base}
        reply, t0, _, t2 = conn.job(spec)
        if check_generate(ledger, phase, spec, reply):
            cold_ms[(method, dataset)] = 1000.0 * (t2 - t0)
    return cold_ms


def cold_round(tsgd, info, rundir, name, store, ledger, gen_base, daemons):
    """A fresh daemon over a set-up's store sends one first generate per model:
    each misses the serving cache and loads, restores and generates, as the
    first generate after a fit does. Returns [(model, latency in ms)]."""
    daemon = Daemon(tsgd, rundir, name, TSGBENCH_STORE_DIR=store)
    daemons.append(daemon)
    daemon.wait_listening()
    conn = Connection(daemon.socket)
    try:
        cold = first_generates(conn, info, ledger, "cold", gen_base)
    finally:
        conn.close()
    ledger.check("cold.daemon_exit", daemon.shutdown() == 0, "nonzero exit")
    return list(cold.items())


class Client(threading.Thread):
    """One closed-loop connection: sends its next request when the last one
    completes, until the deadline."""

    def __init__(self, daemon, index, plan, deadline, ledger, phase, spans, suite,
                 first_k):
        super().__init__(daemon=True)
        self.k = first_k
        self.conn = Connection(daemon.socket)
        self.index = index
        self.plan = plan
        self.deadline = deadline
        self.ledger = ledger
        self.phase = phase
        self.spans = spans
        self.suite = suite
        self.samples = []  # (kind, t_submit, t_ack, t_done, (method, dataset))
        self.streams = []
        self.error = None

    def run(self):
        try:
            while time.perf_counter() < self.deadline:
                for spec in self.plan(self.k):
                    reply, t0, t1, t2 = self.conn.job(spec)
                    kind = spec["kind"]
                    if kind == "generate":
                        ok = check_generate(self.ledger, self.phase, spec, reply)
                    elif kind == "evaluate":
                        ok = check_evaluate(self.ledger, self.phase, spec, reply, self.suite)
                    else:
                        ok = check_stream(self.ledger, self.phase, spec, reply)
                        self.streams.append(spec)
                    if ok:
                        self.samples.append((kind, t0, t1, t2,
                                             (spec["method"], spec["dataset"])))
                    if self.spans is not None:
                        owner = "conn%d/req%d" % (self.index, len(self.spans))
                        self.spans.append({"name": "serve.request." + kind,
                                           "owner": owner, "start": t0, "ack": t1,
                                           "end": t2, "ok": ok})
                self.k += 1
        except Exception as e:  # Timeouts and dropped sessions count as failures.
            self.ledger.op(self.phase, "session", False)
            self.error = repr(e)
        finally:
            self.conn.close()


def request_plans(info, workload, seed):
    """Per-connection request generators: k -> list of job specs."""
    rng = random.Random(seed)
    gen_base = rng.randrange(1, 2 ** 31)
    cells = models(info)
    # Evenly spaced starting points: the seed rotates the request order but
    # keeps the mix of models in flight together alike from seed to seed.
    base = rng.randrange(len(cells))
    offsets = [(base + i * len(cells) // 3) % len(cells) for i in range(3)]

    def gen_plan(i):
        def plan(k):
            method, dataset = cells[(offsets[i] + k) % len(cells)]
            # Four seeds per model, so (model, seed, count) repeats recur.
            return [{"kind": "generate", "tenant": "t%d" % i, "method": method,
                     "dataset": dataset, "count": info["serve_count"],
                     "gen_seed": gen_base + (k // len(cells)) % 4}]
        return plan

    def heavy_plan(k):
        method, dataset = cells[(offsets[2] + k) % len(cells)]
        return [{"kind": "evaluate", "tenant": "t2", "method": method, "dataset": dataset},
                {"kind": "stream_eval", "tenant": "t2", "method": method,
                 "dataset": dataset, "count": STREAM_COUNT,
                 "gen_seed": gen_base + 17 + k, "window": STREAM_WINDOW,
                 "chunk": STREAM_CHUNK}]

    if workload == "serve_generate":
        return gen_base, [gen_plan(0), gen_plan(1), gen_plan(2)]
    return gen_base, [gen_plan(0), gen_plan(1), heavy_plan]


def timed_phase(daemon, plans, seconds, ledger, phase, spans, suite, next_k=None):
    """Runs one closed-loop client per plan for `seconds`, reading the daemon's
    CPU time at the start and at the deadline. `next_k` (per connection)
    continues each plan where an earlier phase stopped."""
    next_k = next_k if next_k is not None else [0] * len(plans)
    start = time.perf_counter()
    cpu0 = daemon.cpu_seconds()
    clients = [Client(daemon, i, plan, start + seconds, ledger, phase, spans, suite,
                      next_k[i])
               for i, plan in enumerate(plans)]
    for c in clients:
        c.start()
    time.sleep(max(0.0, start + seconds - time.perf_counter()))
    mark = (time.perf_counter(), daemon.cpu_seconds())
    for c in clients:
        c.join(timeout=seconds + 90)
        if c.is_alive():
            raise BenchError("client %d did not finish" % c.index)
        ledger.check_once("%s.session" % phase, c.error is None, c.error or "")
        next_k[c.index] = c.k
    cpu = daemon.cpu_seconds() - cpu0
    samples = [s for c in clients for s in c.samples]
    end = max([s[3] for s in samples] + [time.perf_counter()])
    streams = [s for c in clients for s in c.streams]
    return {"samples": samples, "wall": end - start, "cpu": cpu, "start": start,
            "end": end, "streams": streams, "clients": len(clients),
            "marks": [(start, cpu0), mark]}


def window_rates(timed):
    """Requests completed per second up to the deadline, and daemon CPU ms per
    request over the same window. Requests still running at the deadline are
    left out, as those running before the start were."""
    (t0, cpu0), (t1, cpu1) = timed["marks"]
    done = sum(1 for s in timed["samples"] if s[3] < t1)
    if not done:
        raise BenchError("no request completed in a %.2f s segment" % (t1 - t0))
    return done / (t1 - t0), 1000.0 * (cpu1 - cpu0) / done


def merge_phases(phases):
    return {"samples": [x for p in phases for x in p["samples"]],
            "wall": sum(p["wall"] for p in phases),
            "cpu": sum(p["cpu"] for p in phases),
            "start": min(p["start"] for p in phases),
            "streams": [x for p in phases for x in p["streams"]],
            "clients": phases[0]["clients"]}


def latencies(samples, kind):
    return [1000.0 * (s[3] - s[1]) for s in samples if s[0] == kind]


def heavy_cycles(samples):
    """(cell, latency) of each evaluate + stream_eval pair the heavy connection
    sent; both requests of a pair are for the same cell."""
    out = []
    heavy = sorted((s for s in samples if s[0] in ("evaluate", "stream_eval")),
                   key=lambda s: s[1])
    for a, b in zip(heavy, heavy[1:]):
        if a[0] == "evaluate" and b[0] == "stream_eval":
            out.append((a[4], 1000.0 * (b[3] - a[1])))
    return out


def cell_geomean(pairs):
    """Geometric mean over cells of each cell's median latency, from (cell, ms)
    pairs. The 20 models differ up to twentyfold in cost, so a median over all
    samples falls between two models and jumps when their order shifts; this
    weighs every model alike and moves smoothly with each."""
    by_cell = {}
    for cell, ms in pairs:
        by_cell.setdefault(cell, []).append(ms)
    if not by_cell:
        raise BenchError("no latency samples")
    return math.exp(statistics.fmean(math.log(statistics.median(v))
                                     for v in by_cell.values()))


def quantile(values, q):
    """Nearest-rank quantile."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def warm_ms(workload, timed):
    if workload == "serve_generate":
        return cell_geomean((s[4], 1000.0 * (s[3] - s[1])) for s in timed["samples"]
                            if s[0] == "generate")
    return cell_geomean(heavy_cycles(timed["samples"]))


def serve_report(timed, report, suffix=""):
    gen = latencies(timed["samples"], "generate")
    report["gen_p50_ms" + suffix] = statistics.median(gen) if gen else float("nan")
    report["gen_p99_ms" + suffix] = quantile(gen, 0.99)
    report["samples.gen" + suffix] = len(gen)
    report["req_per_s" + suffix] = len(timed["samples"]) / timed["wall"]
    report["cpu_s" + suffix] = timed["cpu"]
    for kind, name in (("evaluate", "eval_p50_ms"), ("stream_eval", "stream_p50_ms")):
        values = latencies(timed["samples"], kind)
        if values:
            report[name + suffix] = statistics.median(values)
            report["samples." + kind + suffix] = len(values)
    cycles = [ms for _, ms in heavy_cycles(timed["samples"])]
    if cycles:
        report["heavy_cycle_p50_ms" + suffix] = statistics.median(cycles)
        report["samples.heavy_cycle" + suffix] = len(cycles)


def repeat_evaluate(daemon, ledger, plans, suite, phase):
    """Guarantees one evaluate repeat per run: re-scores the first heavy cell."""
    spec = plans[2](0)[0]
    conn = Connection(daemon.socket)
    try:
        reply, _, _, _ = conn.job(dict(spec, tenant="check"))
    finally:
        conn.close()
    check_evaluate(ledger, phase, spec, reply, suite)


def run_serve(tool, tsgd, info, args, rundir, trace_out):
    ledger = Ledger()
    gen_base, plans = request_plans(info, args.workload, args.seed)
    metrics, report = {}, {}
    daemons = []
    try:
        setups, cold, fits = [], [], {}
        num_setups = 1 if args.trace else SERVE_SETUPS
        for i in range(num_setups):
            daemon, seconds, cold_ms, fits = serve_setup(tsgd, info, rundir, "d%d" % i,
                                                         ledger, gen_base)
            daemons.append(daemon)
            setups.append(seconds)
            cold += cold_ms.items()
            if i + 1 < num_setups:
                ledger.check("setup.daemon_exit", daemon.shutdown() == 0, "nonzero exit")
        daemon = daemons[-1]
        report["gen_cold_ms"] = statistics.median(ms for _, ms in cold)
        report["samples.gen_cold"] = len(cold)
        report["setup_s"] = statistics.median(setups)
        report["samples.setup"] = len(setups)

        if not args.trace:
            # The first set-up's store serves the cold rounds; the last
            # set-up's daemon serves the timed segments.
            segments, next_k = [], [0] * len(plans)
            for r in range(ROUNDS):
                cold += cold_round(tsgd, info, rundir, "cold%d" % r, daemons[0].store,
                                   ledger, gen_base, daemons)
                segments.append(timed_phase(daemon, plans, args.seconds / ROUNDS, ledger,
                                            "timed", None, info["suite"], next_k))
            timed = merge_phases(segments)
            if args.workload == "serve_mixed":
                repeat_evaluate(daemon, ledger, plans, info["suite"], "check")
            serve_report(timed, report)
            rates = [window_rates(seg) for seg in segments]
            log("segments (req/s, cpu ms/req): " +
                " ".join("(%.1f, %.3f)" % r for r in rates))
            report["samples.segments"] = len(rates)
            report["samples.cold"] = len(cold)
            metrics["setup_s"] = statistics.median(setups)
            metrics["cold_ms"] = cell_geomean(cold)
            metrics["warm_ms"] = warm_ms(args.workload, timed)
            metrics["ops_per_s"] = statistics.median(r[0] for r in rates)
            metrics["cpu_ms_per_op"] = statistics.median(r[1] for r in rates)
            metrics["peak_rss_mb"] = daemon.peak_rss_mb()
            report["jobs_served"] = daemon.metrics()["counts"]["counters"].get(
                "serve.queue.submitted", 0)
        else:
            metrics = traced_serve(tool, info, daemon, args, rundir, plans, ledger,
                                   fits, gen_base, report, trace_out)
        code = daemon.shutdown()
        ledger.check("daemon.exit_code", code == 0, "tsgd exited %d" % code)
    finally:
        for d in daemons:
            d.kill()
    return finish(ledger, metrics, report)


def metric_delta(before, after, section, name, field=None):
    def get(doc):
        half = "counts" if section == "counters" else "timings"
        value = doc.get(half, {}).get(section, {}).get(name, {} if field else 0)
        return value.get(field, 0) if field else value
    return get(after) - get(before)


def trace_nodes(node, name):
    """Every node called `name` in an obs trace tree, at any depth."""
    for child_name, child in node.get("children", {}).items():
        if child_name == name:
            yield child
        yield from trace_nodes(child, name)


def trace_seconds(snapshot, name):
    return sum(n["seconds"] for n in trace_nodes(snapshot["timings"]["trace"], name))


def trace_count(snapshot, name):
    return sum(n["count"] for n in trace_nodes(snapshot["timings"]["trace"], name))


def ping(daemon, ledger, phase, count=50):
    conn = Connection(daemon.socket)
    try:
        pings = []
        for _ in range(count):
            t0 = time.perf_counter()
            ledger.op(phase, "ping", conn.call({"cmd": "ping"}).get("ok") is True)
            pings.append(1000.0 * (time.perf_counter() - t0))
    finally:
        conn.close()
    return pings


def serve_layer_metrics(pings, samples, traced_samples, before, after):
    """serve.* and store.cache_hit_ratio from client timings and two METRICS
    snapshots taken around `samples`."""
    job_s = trace_seconds(after, "serve.job") - trace_seconds(before, "serve.job")
    jobs = trace_count(after, "serve.job") - trace_count(before, "serve.job")
    client_s = sum(s[3] - s[1] for s in samples)
    hits = metric_delta(before, after, "counters", "serving.hits")
    misses = metric_delta(before, after, "counters", "serving.misses")
    return {
        "serve.ping_ms": statistics.median(pings),
        "serve.ack_ms": statistics.median(1000.0 * (s[2] - s[1]) for s in traced_samples),
        "serve.job_s": job_s / jobs if jobs else 0.0,
        "serve.wait_share": 1.0 - job_s / client_s if client_s else 0.0,
        "serve.jobs_total": after["counts"]["counters"].get("serve.queue.submitted", 0),
        "store.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def grid_serve_probe(tsgd, info, args, rundir, ledger):
    """Probe of the serve layer, which paper_grid's own traffic never runs, on
    paper_grid's trained models: a tsgd over the grid's store answers pings
    and two passes of one generate per model (the first misses the serving
    cache, the second hits it)."""
    daemon = Daemon(tsgd, rundir, "serve_probe", TSGBENCH_SEED=str(args.seed),
                    TSGBENCH_STORE_DIR=os.path.join(rundir, "store"))
    try:
        daemon.wait_listening()
        pings = ping(daemon, ledger, "probe")
        before = daemon.metrics()
        conn = Connection(daemon.socket)
        samples = []
        try:
            for _ in range(2):
                for dataset in info["grid_datasets"]:
                    for method in info["methods"]:
                        spec = {"kind": "generate", "tenant": "probe", "method": method,
                                "dataset": dataset, "count": info["serve_count"],
                                "gen_seed": args.seed}
                        reply, t0, t1, t2 = conn.job(spec)
                        if check_generate(ledger, "probe", spec, reply):
                            samples.append(("generate", t0, t1, t2, (method, dataset)))
        finally:
            conn.close()
        after = daemon.metrics()
        code = daemon.shutdown()
        ledger.check("probe.daemon_exit", code == 0, "tsgd exited %d" % code)
    finally:
        daemon.kill()
    return serve_layer_metrics(pings, samples, samples, before, after)


def traced_serve(tool, info, daemon, args, rundir, plans, ledger, fits, gen_base,
                 report, trace_out):
    suite = info["suite"]
    pings = ping(daemon, ledger, "traced")
    # Untraced and traced slices alternate in ABBA order, so the daemon's drift
    # over its lifetime job count weighs on both sides alike.
    slices = {False: [], True: []}
    spans = []
    next_k = [0] * len(plans)
    before = daemon.metrics()
    for traced in (False, True, True, False) * 2:
        slices[traced].append(timed_phase(
            daemon, plans, args.seconds / 4.0, ledger, "traced" if traced else "untraced",
            spans if traced else None, suite, next_k))
    after = daemon.metrics()
    untraced, timed = merge_phases(slices[False]), merge_phases(slices[True])
    both = merge_phases(slices[False] + slices[True])
    if args.workload == "serve_mixed":
        repeat_evaluate(daemon, ledger, plans, suite, "check")
    serve_report(untraced, report, ".untraced")
    serve_report(timed, report, ".traced")

    streams_path = os.path.join(rundir, "streams.txt")
    with open(streams_path, "w") as f:
        for s in timed["streams"]:
            f.write("%s %s %d %d %d %d\n" % (s["method"], s["dataset"], s["count"],
                                             s["gen_seed"], s["window"], s["chunk"]))
    probe_cmd = [tool, "probe", "--store=" + daemon.store,
                 "--root=" + os.path.join(rundir, "probe"), "--gen_seed=%d" % gen_base,
                 "--streams=" + streams_path]
    with open(os.path.join(rundir, "probe.log"), "w") as err:
        proc = subprocess.run(probe_cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                              env=program_env(), timeout=RUN_DEADLINE_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("probe exited %d without a result" % proc.returncode)
    probe = json.loads(lines[-1])
    for check in probe["checks"]:
        ledger.op("probe", "call", check["ok"])
        ledger.check_once("probe." + check["name"], check["ok"], check["detail"])

    m = dict(probe["metrics"])
    fit_s = {}
    for (method, _), reply in fits.items():
        fit_s[method] = fit_s.get(method, 0.0) + reply.get("fit_seconds", 0.0)
    m["methods.fit_s"] = sum(fit_s.values())
    for method in info["methods"]:
        m["methods.fit_s." + method] = fit_s.get(method, 0.0)
    counters = after["counts"]["counters"]
    m["methods.train_steps"] = sum(v for k, v in counters.items()
                                   if k.startswith("train.") and k.endswith(".steps"))
    if args.workload == "serve_mixed":
        # The workload's own evaluate jobs; on serve_generate, which sends
        # none, the probe's warm grid over the served models measures them.
        evaluations = 0
        for measure in suite:
            name = "measure.%s.seconds" % measure
            m["measures.%s_s" % measure] = metric_delta(before, after, "timers", name,
                                                        "total_seconds")
            evaluations += metric_delta(before, after, "timers", name, "count")
        m["measures.evaluations"] = evaluations
    for key in ("tasks_executed", "idle_waits"):
        m["pool." + key] = (after["timings"]["pool"][key] - before["timings"]["pool"][key])
    m["ag.allocs.steady_state"] = counters.get("ag.allocs.steady_state", 0)
    m["ag.arena.bytes_peak"] = after["timings"]["gauges"].get("ag.arena.bytes_peak", 0.0)
    m.update(serve_layer_metrics(pings, both["samples"], timed["samples"], before, after))
    # Share of the traced phase each connection had a request outstanding.
    busy = sum(s[3] - s[1] for s in timed["samples"])
    m["trace.coverage"] = busy / (timed["clients"] * timed["wall"])
    m["obs.trace_overhead"] = (warm_ms(args.workload, timed) /
                               warm_ms(args.workload, untraced) - 1.0)

    t0 = timed["start"]
    with open(trace_out, "w") as f:
        json.dump({"spans": [
            {"id": 3 * i + j, "parent": -1 if j == 0 else 3 * i, "name": name,
             "owner": s["owner"], "start": start - t0, "end": end - t0}
            for i, s in enumerate(spans)
            for j, (name, start, end) in enumerate(
                [(s["name"], s["start"], s["end"]), ("serve.ack", s["start"], s["ack"]),
                 ("serve.wait", s["ack"], s["end"])])]}, f)
    return m


# ----------------------------------------------------------------- main ----

def format_value(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def run_workload(tool, tsgd, info, args, prov):
    os.makedirs(RUNS, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    rundir = os.path.join(RUNS, "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    trace_out = os.path.join(OUT, "trace-%s.json" % tag)
    if args.workload == "paper_grid":
        result = run_paper_grid(tool, tsgd, info, args, rundir, trace_out)
    else:
        result = run_serve(tool, tsgd, info, args, rundir, trace_out)

    end_to_end, per_layer = metric_lists()
    wanted = per_layer if args.trace else end_to_end
    metrics = {}
    for name, unit in wanted:
        value = result["metrics"].get(name)
        if value is None or not math.isfinite(value):
            raise BenchError("metric %s missing or non-finite: %s" % (name, value))
        metrics[name] = {"value": value, "unit": unit}
    correct = all(ok for _, ok, _ in result["checks"]) and result["failed"] == 0

    print("perfbench %s seed=%d trace=%d seconds=%d" %
          (args.workload, args.seed, args.trace, args.seconds))
    for name, entry in metrics.items():
        line = "  %-34s %14s %-6s" % (name, format_value(entry["value"]), entry["unit"])
        if args.trace:
            source = "probe" if name.startswith(PROBED[args.workload]) else "own"
            line += " %-5s moves: %s | unchanged: %s" % ((source,) + layer_map(name))
        print(line)
    for name in sorted(result["report"]):
        print("  %-34s %14s %s" % (name, format_value(result["report"][name]),
                                   report_unit(name)))
    failed_checks = [c for c in result["checks"] if not c[1]]
    print("  checks: %d passed, %d failed%s" % (
        len(result["checks"]) - len(failed_checks), len(failed_checks),
        "".join("\n    FAILED %s: %s" % (n, d) for n, _, d in failed_checks)))
    print("  provenance: " + json.dumps(prov, sort_keys=True))
    record = {"provenance": prov, "correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics, "report": result["report"],
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in result["checks"]],
              "probes": sorted(n for n in metrics
                               if args.trace and n.startswith(PROBED[args.workload]))}
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if correct:
        shutil.rmtree(rundir, ignore_errors=True)
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def on_alarm(signum, frame):
    raise Deadline()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    os.chdir(ROOT)
    try:
        tool, tsgd = build()
        info = program_info(tool)
        workloads = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
        # SIGTERM unwinds like the deadline, so every daemon is killed and reaped.
        signal.signal(signal.SIGALRM, on_alarm)
        signal.signal(signal.SIGTERM, on_alarm)
        signal.alarm(RUN_DEADLINE_S * len(workloads))
        results = {}
        for name in workloads:
            sub = argparse.Namespace(**dict(vars(args), workload=name))
            results[name] = run_workload(tool, tsgd, info, sub, provenance(info, sub))
        signal.alarm(0)
    except Exception as e:  # Any failure: no result line, non-zero exit.
        log("run failed: %r" % (e,))
        traceback.print_exc(file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, separators=(",", ":")))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
