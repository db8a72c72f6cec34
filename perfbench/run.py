#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload warm-replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload push-fill --repeat 5 --seconds 10

Run from the repository root. It builds the release binaries (`suite`,
`dri-serve`, `trace-check`) and the probe crate in `perfbench/probe`,
runs one workload, checks its outputs, and prints one JSON object as the
last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end set of BENCHMARK.json,
measured with tracing off; with `--trace 1` they are the per-layer set,
from a traced run plus the engine and service layer probes. The exit
code is non-zero when a correctness check fails or the benchmark cannot
run. `--repeat N` runs the workload N times with seeds 1..N and prints
each metric's median and quartile spread instead. See
perfbench/README.md for the workloads and the metric map.
"""

import argparse
import collections
import json
import os
import re
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
WORKLOADS = ("warm-replay", "push-fill")

# The quick Figure 3 campaign: 15 benchmarks x 7 records.
CAMPAIGN_RECORDS = 105
CAMPAIGN_BENCHMARKS = 15
# Committed instructions per simulation in quick mode.
QUICK_BUDGET = 600_000
# Server set-ups per run (server start to /healthz, ~5 ms each); setup_s
# is their median. Half run before the timed loop and half after it, so
# that, like the loop, they sample the host over the whole run rather
# than in one burst.
SETUPS = 24
SERVER_WORKERS = 2
TOKEN = "perfbench-token"
CHILD_TIMEOUT_S = 150
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    """The benchmark cannot run (as opposed to a failed correctness check)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- parsing


def parse_figure3(text):
    """Parses `suite figure3` stdout into rows and the printed means.

    Returns {"rows": [...], "ed_reduction_pct": f, "size_reduction_pct": f};
    each row holds name, c_ed, c_size_pct, c_slowdown_pct, violation,
    paper_ed. Raises ValueError when the table is not there.
    """
    rows = []
    in_table = False
    for line in text.splitlines():
        if line.startswith("benchmark "):
            in_table = True
            continue
        if in_table and line.startswith("---"):
            continue
        if in_table:
            if not line.strip():
                in_table = False
                continue
            t = line.split()
            if len(t) < 11:
                raise ValueError(f"short Figure 3 row: {line!r}")
            rows.append({
                "name": t[0],
                "c_ed": float(t[1]),
                "c_size_pct": float(t[3].rstrip("%")),
                "c_slowdown_pct": float(t[4].rstrip("!").rstrip("%")),
                "violation": t[4].endswith("!"),
                "paper_ed": float(t[-2]),
            })
    ed = re.search(r"mean constrained energy-delay reduction: (-?[0-9.]+)%", text)
    size = re.search(r"mean constrained cache-size reduction: (-?[0-9.]+)%", text)
    if not rows or ed is None or size is None:
        raise ValueError("no Figure 3 table in suite output")
    return {
        "rows": rows,
        "ed_reduction_pct": float(ed.group(1)),
        "size_reduction_pct": float(size.group(1)),
    }


def figure3_metrics(fig):
    """The fidelity numbers of one parsed Figure 3."""
    rows = fig["rows"]
    return {
        "fig3_ed_gap": sum(abs(r["c_ed"] - r["paper_ed"]) for r in rows) / len(rows),
        "fig3_size_reduction_pct": fig["size_reduction_pct"],
        "fig3.ed_reduction_pct": fig["ed_reduction_pct"],
        "fig3.constraint_violations": sum(1 for r in rows if r["violation"]),
    }


SUMMARY_RE = re.compile(
    r"session: (\d+) simulations, (\d+) memory hits, (\d+) disk hits, "
    r"(\d+) remote hits, (\d+) workloads generated")


def parse_summary(text):
    """Parses the session line of the suite's stderr summary."""
    m = SUMMARY_RE.search(text)
    if m is None:
        raise ValueError("no session summary in suite stderr")
    keys = ("simulations", "memory_hits", "disk_hits", "remote_hits", "workload_gens")
    return dict(zip(keys, (int(g) for g in m.groups())))


def split_store_stats(text):
    """Splits `suite --store-stats` stdout into the report before the
    store section and the remote tier's client counters (None when the
    suite ran with no remote tier). Raises ValueError when the section
    is missing."""
    at = text.find("\nresult store")
    if at < 0:
        raise ValueError("no --store-stats section in suite output")
    report, section = text[:at + 1], text[at + 1:]
    m = re.search(r"^remote store \(.*?\):\n((?:  .*\n?)*)", section, re.M)
    if m is None:
        return report, None
    remote = {}
    for line in m.group(1).splitlines():
        key, _, value = line.strip().partition(": ")
        if value.isdigit():
            remote[key.replace(" ", "_")] = int(value)
    return report, remote


def percentile(values, q):
    """The q-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def timing_summary(values):
    """Median, p90 and sample count of a list of timings."""
    return {"p50": percentile(values, 50), "p90": percentile(values, 90), "n": len(values)}


def spread(values):
    """Distance between the first and third quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def parse_prometheus(text):
    """Sample lines of a Prometheus text exposition, by series name."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 2:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


def count_time_wait(paths=("/proc/net/tcp", "/proc/net/tcp6")):
    """TIME_WAIT sockets on the host (state 06 in /proc/net/tcp*)."""
    n = 0
    for path in paths:
        try:
            with open(path) as f:
                next(f, None)
                n += sum(1 for line in f if line.split()[3:4] == ["06"])
        except OSError:
            pass
    return n


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    """BENCHMARK.json, checked against the metric grammar."""
    with open(path) as f:
        return check_spec(json.load(f))


def check_spec(spec):
    """Raises BenchError unless every name and unit follows the grammar,
    names are unique, and each bound is a share of at most 0.25."""
    seen = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for item in spec[group]:
            name = item["name"]
            if not NAME_RE.match(name) or name in seen:
                raise BenchError(f"bad or repeated name {name!r} in BENCHMARK.json")
            seen.add(name)
            if group != "workloads" and not UNIT_RE.match(item["unit"]):
                raise BenchError(f"bad unit {item['unit']!r} for {name}")
            if group == "end_to_end" and not 0 < item["bound"] <= 0.25:
                raise BenchError(f"bound of {name} is not in (0, 0.25]")
    return spec


# ---------------------------------------------------------------- processes


# One `suite` campaign: wall seconds, the stdout report up to the store
# section, the session summary, the remote tier's client counters (None
# without one), peak RSS in MiB and CPU seconds.
SuiteRun = collections.namedtuple("SuiteRun", "secs report summary remote rss cpu")


class Env:
    """Paths and child-process plumbing for one run."""

    def __init__(self, work, target):
        self.work = work
        self.bin = os.path.join(target, "release")
        self.children = []
        self.running = None

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def exe(self, name):
        return os.path.join(self.bin, name)

    @staticmethod
    def child_env(extra=None):
        """The caller's environment minus every DRI_* knob, plus `extra`."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("DRI_")}
        env.update({"DRI_QUICK": "1", "DRI_THREADS": "1"})
        env.update(extra or {})
        return env

    def run(self, argv, env, tag):
        """Runs a child to completion. Returns (seconds, exit code,
        stdout, stderr, peak RSS in MiB, CPU seconds)."""
        out_path, err_path = self.path(tag + ".out"), self.path(tag + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, cwd=ROOT)
            self.running = proc
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                self.running = None
            elapsed = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, errors="replace") as f:
            stdout = f.read()
        with open(err_path, errors="replace") as f:
            stderr = f.read()
        return (elapsed, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime)

    def probe(self, args, extra_env=None, tag="probe"):
        """Runs the probe crate; returns its JSON object."""
        _, code, out, err, _, _ = self.run([self.exe("perfbench-probe")] + args,
                                           self.child_env(extra_env), tag)
        if code != 0:
            raise BenchError(f"probe {args[0]} exited {code}: {err.strip()[-500:]}")
        return json.loads(out.strip().splitlines()[-1])

    def suite(self, env_extra, tag):
        """One `suite --store-stats figure3` campaign."""
        secs, code, out, err, rss, cpu = self.run([self.exe("suite"), "--store-stats", "figure3"],
                                                  self.child_env(env_extra), tag)
        if code != 0:
            raise BenchError(f"suite figure3 exited {code}: {err.strip()[-500:]}")
        report, remote = split_store_stats(out)
        return SuiteRun(secs, report, parse_summary(err), remote, rss, cpu)

    def start_server(self, root, token=None, extra_env=None, tag="serve"):
        """Starts `dri-serve` on `root`; returns a Server once /healthz answers."""
        env = self.child_env(extra_env)
        env.pop("DRI_QUICK")
        env.pop("DRI_THREADS")
        if token:
            env["DRI_TOKEN"] = token
        err = open(self.path(tag + ".err"), "wb")
        proc = subprocess.Popen(
            [self.exe("dri-serve"), "--store", root, "--addr", "127.0.0.1:0",
             "--workers", str(SERVER_WORKERS)],
            env=env, stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL, cwd=ROOT)
        err.close()
        server = Server(proc)
        self.children.append(server)
        line = proc.stdout.readline().decode(errors="replace")
        m = re.search(r"listening on http://(\S+)", line)
        if m is None:
            server.stop()
            raise BenchError(f"dri-serve did not start: {line!r}")
        server.addr = m.group(1)
        deadline = time.monotonic() + 10
        while True:
            try:
                if http_get(server.addr, "/healthz")[0] == 200:
                    return server
            except OSError:
                pass
            if time.monotonic() > deadline:
                server.stop()
                raise BenchError("dri-serve never answered /healthz")
            time.sleep(0.002)

    def stop_all(self):
        if self.running is not None and self.running.poll() is None:
            self.running.kill()
            self.running.wait()
        for server in self.children:
            server.stop()
        self.children = []


class Server:
    def __init__(self, proc):
        self.proc = proc
        self.addr = None

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for dri-serve")

    def metrics(self):
        status, body = http_get(self.addr, "/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        return parse_prometheus(body.decode(errors="replace"))

    def stats(self):
        status, body = http_get(self.addr, "/stats")
        if status != 200:
            raise BenchError(f"/stats answered {status}")
        return body.decode(errors="replace")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


def http_get(addr, path):
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as s:
        s.sendall(f"GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


def stats_field(doc, key):
    m = re.search(r'"%s":(\d+)' % re.escape(key), doc)
    if m is None:
        raise BenchError(f"/stats has no {key}")
    return int(m.group(1))


# ---------------------------------------------------------------- checks


class Checks:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CHECK FAILED: {what}")
        return ok

    def absorb(self, result, what):
        """Adds a probe's own attempted/failed counts."""
        self.attempted += int(result.get("attempted", 0))
        self.failed += int(result.get("failed", 0))
        if result.get("failed", 0):
            log(f"CHECK FAILED: {what}: {result['failed']} of {result['attempted']}")


def check_campaign(checks, run, reference, remote_hits=0):
    """A `suite figure3` run: 15 rows, its session and remote counts, and
    a report identical to `reference` (the seeding campaign's)."""
    fig = parse_figure3(run.report)
    summary = run.summary
    checks.check(len(fig["rows"]) == CAMPAIGN_BENCHMARKS,
                 f"Figure 3 has {len(fig['rows'])} rows, want {CAMPAIGN_BENCHMARKS}")
    if remote_hits:
        checks.check(summary["simulations"] == 0 and summary["workload_gens"] == 0
                     and summary["remote_hits"] == remote_hits,
                     f"replayed campaign simulated: {summary}")
        checks.check(run.remote is not None and run.remote.get("misses") == 0
                     and run.remote.get("errors") == 0,
                     f"replayed campaign remote counters: {run.remote}")
    else:
        checks.check(summary["simulations"] == CAMPAIGN_RECORDS
                     and summary["workload_gens"] == CAMPAIGN_BENCHMARKS
                     and summary["remote_hits"] == 0,
                     f"cold campaign counts: {summary}")
    if reference is not None:
        checks.check(run.report == reference, "Figure 3 output differs between campaigns")
    return fig


# ---------------------------------------------------------------- workloads


# What a workload starts from: the seeding campaign's report, Figure 3
# and wall seconds, and the store root it filled.
Seed = collections.namedtuple("Seed", "reference fig secs root")


def seed_store(env, checks):
    """Fills a tmpfs store with the campaign's 105 records by running the
    cold campaign: `suite figure3` at one thread with no remote tier, so
    the engine does all the work. This makes the workload's inputs; it is
    neither set-up nor timed end to end (see README.md)."""
    root = env.path("seed")
    shutil.rmtree(root, ignore_errors=True)
    run = env.suite({"DRI_STORE": root}, "seed")
    checks.check(run.remote is None, f"seeding campaign used a remote tier: {run.remote}")
    return Seed(run.report, check_campaign(checks, run, None), run.secs, root)


def setup_server(env, seed, reps, token):
    """warm-replay / push-fill set-up: `dri-serve` started on the seeded
    store (replay) or on a fresh, empty tmpfs root with a token (push),
    until its first /healthz answer. Repeated `reps` times; returns the
    times and the last server, which is kept."""
    times, server = [], None
    for i in range(reps):
        if server is not None:
            server.stop()
            env.children.remove(server)
        root = seed.root
        if token:
            root = env.path("push")
            shutil.rmtree(root, ignore_errors=True)
            os.makedirs(root)
        started = time.perf_counter()
        server = env.start_server(root, token=token, tag=f"serve{i}")
        times.append(time.perf_counter() - started)
    return times, server


def replay_suite(env, checks, seed, server, tag):
    """A cold worker replaying the campaign from `server` through the real
    `suite` binary: the seeded Figure 3 with 0 simulations."""
    run = env.suite({"DRI_REMOTE": server.addr}, tag)
    check_campaign(checks, run, seed.reference, remote_hits=CAMPAIGN_RECORDS)
    return run


def warm_replay(env, checks, seed, server, seconds, opts_seed, extra_env=None, tag="replay"):
    before = server.metrics()
    result = env.probe([
        "replay", "--addr", server.addr, "--reference", seed.root,
        "--seconds", str(seconds), "--seed", str(opts_seed),
        "--server-pid", str(server.proc.pid),
    ], extra_env, tag)
    after = server.metrics()
    checks.absorb(result, "warm-replay sessions (0 simulations, byte-identical records)")
    checks.check(result["simulations"] == 0 and result["workload_gens"] == 0,
                 "warm-replay sessions simulated")
    checks.check(len(result["batch_ms"]) >= 10 and len(result["point_ms"]) >= 1,
                 "warm-replay timed too few sessions")
    if not result["batch_ms"]:
        raise BenchError("warm-replay timed no batch session")
    replay_suite(env, checks, seed, server, tag + "-suite")
    return {
        "op_ms": result["batch_ms"],
        "point_ms": result["point_ms"],
        "records_per_s": CAMPAIGN_RECORDS * len(result["batch_ms"]) / (sum(result["batch_ms"]) / 1e3),
        "cpu_us_per_record": result["cpu_s"] / result["records"] * 1e6,
        "peak_rss_mb": server.peak_rss_mb(),
        "fig": seed.fig,
        "simulations": result["simulations"] / max(1, result["attempted"]),
        "workload_gens": result["workload_gens"] / max(1, result["attempted"]),
        "round_trips": result["round_trips"] / max(1, len(result["batch_ms"])),
        "server_before": before,
        "server_after": after,
    }


def push_fill(env, checks, seed, server, seconds, opts_seed, extra_env=None, tag="push"):
    before = server.metrics()
    result = env.probe([
        "push", "--addr", server.addr, "--token", TOKEN, "--reference", seed.root,
        "--seconds", str(seconds), "--seed", str(opts_seed),
        "--server-pid", str(server.proc.pid),
    ], extra_env, tag)
    after = server.metrics()
    checks.absorb(result, "push-fill batches (all Accepted, byte-identical read-back)")
    checks.check(len(result["batch_ms"]) >= 10, "push-fill timed too few batches")
    if not result["batch_ms"]:
        raise BenchError("push-fill timed no batch")
    accepted = stats_field(server.stats(), "records_accepted")
    checks.check(accepted == result["pushed"],
                 f"server accepted {accepted} records, client pushed {result['pushed']}")
    # The probe pushed the campaign under its real keys last; a cold
    # worker must replay it from this server without simulating.
    run = replay_suite(env, checks, seed, server, tag + "-suite")
    saves = after.get("dri_store_save_ns_count", 0) - before.get("dri_store_save_ns_count", 0)
    return {
        "op_ms": result["batch_ms"],
        "records_per_s": result["records"] / (sum(result["batch_ms"]) / 1e3),
        "cpu_us_per_record": result["cpu_s"] / result["records"] * 1e6,
        "peak_rss_mb": server.peak_rss_mb(),
        "fig": seed.fig,
        "simulations": run.summary["simulations"],
        "workload_gens": run.summary["workload_gens"],
        "round_trips": result["round_trips"] / max(1, len(result["batch_ms"])),
        "fsyncs_per_record": saves / max(1, result["pushed"]),
        "server_before": before,
        "server_after": after,
    }


def end_to_end(res):
    t = timing_summary(res["op_ms"])
    fig = figure3_metrics(res["fig"])
    log(f"op latency: p25 {percentile(res['op_ms'], 25):.3f} ms, p50 {t['p50']:.3f} ms, "
        f"p90 {t['p90']:.3f} ms over {t['n']} samples")
    return {
        "op_ms_p25": percentile(res["op_ms"], 25),
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(res["setup"]),
        "fig3_ed_gap": fig["fig3_ed_gap"],
        "fig3_size_reduction_pct": fig["fig3_size_reduction_pct"],
    }


def request_us(res):
    """Mean server-side request latency over the workload's traffic."""
    if "server_before" not in res:
        return 0.0
    b, a = res["server_before"], res["server_after"]
    n = a.get("dri_serve_request_latency_ns_count", 0) - b.get("dri_serve_request_latency_ns_count", 0)
    s = a.get("dri_serve_request_latency_ns_sum", 0) - b.get("dri_serve_request_latency_ns_sum", 0)
    return s / n / 1e3 if n else 0.0


def trace_check(env, checks, path, require):
    _, code, _, err, _, _ = env.run([env.exe("trace-check"), path, "--require", require],
                                    env.child_env(), "trace-check")
    checks.check(code == 0, f"trace-check {os.path.basename(path)} --require {require}: {err.strip()[-300:]}")


def traced(env, checks, workload, seconds, opts_seed):
    """The per-layer run: the workload untraced and then traced (for the
    overhead guard and the trace check), plus the engine and service probes."""
    layer = {"host.time_wait_sockets": count_time_wait()}
    half = max(1.0, seconds / 2)
    seed = seed_store(env, checks)
    trace = env.path("suite-trace.jsonl")
    run = env.suite({"DRI_TRACE": trace}, "campaign-traced")
    # Tracing must leave the printed results bit-identical.
    check_campaign(checks, run, seed.reference)
    trace_check(env, checks, trace, "kind=tier,outcome=simulate")
    replay = workload == "warm-replay"
    token = None if replay else TOKEN
    loop = warm_replay if replay else push_fill
    _, server = setup_server(env, seed, 1, token)
    res = loop(env, checks, seed, server, half, opts_seed)
    if replay:
        probe_server, traced_root = server, seed.root
    else:
        probe_server = env.start_server(seed.root, tag="probe-serve")
        traced_root = env.path("push-traced")
    serve_trace = env.path("serve-trace.jsonl")
    client_trace = env.path("client-trace.jsonl")
    tserver = env.start_server(traced_root, token=token, tag="serve-traced",
                               extra_env={"DRI_TRACE": serve_trace, "DRI_TIMING": "1"})
    tres = loop(env, checks, seed, tserver, half, opts_seed,
                {"DRI_TRACE": client_trace, "DRI_TIMING": "1"}, workload + "-traced")
    if replay:
        trace_check(env, checks, client_trace, "kind=prefetch")
    trace_check(env, checks, serve_trace, "kind=serve")
    overhead = percentile(tres["op_ms"], 50) / percentile(res["op_ms"], 50) - 1
    layer.update({
        "op.samples": len(res["op_ms"]),
        "op.ms_p50": percentile(res["op_ms"], 50),
        "op.ms_p90": percentile(res["op_ms"], 90),
        "op.records_per_s": res["records_per_s"],
        "op.cpu_us_per_record": res["cpu_us_per_record"],
        "replay.point_ms_p50": percentile(res["point_ms"], 50) if res.get("point_ms") else 0.0,
        "experiments.campaign_s": seed.secs,
        "cpu.sim_minst_per_s": CAMPAIGN_RECORDS * QUICK_BUDGET / 1e6 / seed.secs,
        "experiments.simulations": res["simulations"],
        "experiments.workload_gens": res["workload_gens"],
        "client.round_trips": res["round_trips"],
        "serve.request_us": request_us(res),
        "store.fsyncs_per_record": res.get("fsyncs_per_record", 0.0),
        "telemetry.trace_overhead_pct": overhead * 100,
    })
    fig_metrics = figure3_metrics(seed.fig)
    layer["fig3.ed_reduction_pct"] = fig_metrics["fig3.ed_reduction_pct"]
    layer["fig3.constraint_violations"] = fig_metrics["fig3.constraint_violations"]

    engine = env.probe(["engine", "--reference", seed.root], tag="engine")
    checks.absorb(engine, "engine probe runs identical to the stored records")
    scratch = env.path("service-scratch")
    shutil.rmtree(scratch, ignore_errors=True)
    service = env.probe(["service", "--addr", probe_server.addr, "--reference",
                         seed.root, "--scratch", scratch], tag="service")
    checks.absorb(service, "service probe round trips")
    for part in (engine, service):
        layer.update({k: v for k, v in part.items() if k not in ("attempted", "failed")})
    return layer


# ---------------------------------------------------------------- entry point


def build(target):
    """Builds the release binaries and the probe crate."""
    cmds = [
        ["cargo", "build", "--release", "--offline", "-p", "dri-experiments", "--bin", "suite",
         "-p", "dri-serve", "--bin", "dri-serve", "-p", "dri-telemetry", "--bin", "trace-check"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "probe", "Cargo.toml")],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in cmds:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL, timeout=840)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def enter_private_tmpfs(work):
    """Re-executes this script in a private mount namespace (when it is not
    already in one) and mounts a tmpfs at `work`, so every store root and
    journal lives in memory but under the checkout, and the mount vanishes
    with the process. Raises BenchError when that is not possible: on a
    disk, fsync latency moves from run to run and would be measured too."""
    os.makedirs(work, exist_ok=True)
    if os.environ.get("PERFBENCH_NS") != "1":
        for prefix in (["unshare", "--mount", "--propagation", "private"],
                       ["unshare", "--user", "--map-root-user", "--mount", "--propagation", "private"]):
            try:
                ok = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL).returncode == 0
            except OSError:
                ok = False
            if ok:
                os.environ["PERFBENCH_NS"] = "1"
                sys.stdout.flush()
                sys.stderr.flush()
                os.execvp(prefix[0], prefix + [sys.executable, os.path.abspath(__file__)]
                          + sys.argv[1:])
        raise BenchError("cannot create a private mount namespace (unshare --mount) for the tmpfs")
    if subprocess.run(["mount", "-t", "tmpfs", "-o", "size=1g,mode=0700", "perfbench", work],
                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode != 0:
        raise BenchError(f"cannot mount a tmpfs at {work}")


def one_run(opts, spec):
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    work = os.path.join(ROOT, ".perfbench")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or \
            not os.path.isdir(os.path.join(ROOT, "crates")):
        raise BenchError(f"{ROOT} is not the repository: no Cargo.toml/crates to build")
    enter_private_tmpfs(work)
    env = Env(work, target)
    checks = Checks()
    try:
        build(target)
        started = time.perf_counter()
        if opts.trace:
            metrics = traced(env, checks, opts.workload, opts.seconds, opts.seed)
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            token = TOKEN if opts.workload == "push-fill" else None
            loop = push_fill if token else warm_replay
            seed = seed_store(env, checks)
            before, server = setup_server(env, seed, SETUPS // 2, token)
            res = loop(env, checks, seed, server, opts.seconds, opts.seed)
            server.stop()
            env.children.remove(server)
            after, _ = setup_server(env, seed, SETUPS // 2, token)
            res["setup"] = before + after
            metrics = end_to_end(res)
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        env.stop_all()
        subprocess.run(["umount", "-l", work], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
    missing = sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    if missing or extra:
        raise BenchError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    log(f"{opts.workload} ({'traced' if opts.trace else 'untraced'}, seed {opts.seed}) "
        f"took {time.perf_counter() - started:.1f}s")
    for name in names:
        log(f"  {name:34s} {metrics[name]:>16.6g} {units[name]}")
    return {
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in names},
    }


def repeat(opts):
    """Runs the workload `opts.repeat` times (seeds 1..N) and reports each
    metric's median and quartile spread as a share of the median."""
    values = {}
    for seed in range(1, opts.repeat + 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", opts.workload,
             "--seed", str(seed), "--seconds", str(opts.seconds), "--trace", str(int(opts.trace))],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"seed {seed} failed (exit {proc.returncode})")
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    print(f"{'metric':34s} {'median':>12s} {'spread':>8s}  values")
    for name, vals in values.items():
        print(f"{name:34s} {statistics.median(vals):12.5g} {spread(vals):8.2%}  "
              + " ".join(f"{v:.4g}" for v in vals))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N times (seeds 1..N) and print each metric's spread")
    opts = ap.parse_args(argv)
    if opts.repeat:
        return repeat(opts)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = load_spec()
        result = one_run(opts, spec)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as err:
        log(f"error: {err}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
