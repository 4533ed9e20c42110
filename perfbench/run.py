#!/usr/bin/env python3
"""The repository benchmark: seeded workloads against the release `rehearsal` binary.

    python3 perfbench/run.py --workload <check-cold|fleet-edit|serve-mixed> \
        --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --self-test [--seeds 1 2 3]

Run from the repository root. The script builds `rehearsal` and the
per-layer probe (`perfbench/`, its own Cargo package) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), makes its inputs from the
seed in a fresh directory under `.bench_tmp/`, and removes it afterwards.

With `--trace 0` it drives the user-facing CLI (`check`, `fleet`, `serve`)
for `--seconds` seconds and prints the end-to-end metrics. With
`--trace 1` it replays the same seeded inputs through the probe, which
links the library and times each crate's public calls, and prints the
per-layer metrics plus the tracing overhead and the share of end-to-end
time the timed layers leave unattributed. Every verdict is compared with
the answers pinned in `rehearsal::benchmarks`; a wrong verdict fails the
run (exit 1, `"correct": false`). The last line of stdout is one JSON
object: `{"correct", "attempted", "failed", "metrics"}`.

`--self-test` checks, for several seeds, that every generated input still
gets its pinned verdict from the library.
"""

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402

ROOT = Path.cwd()
SPEC = ROOT / "BENCHMARK.json"
# Closed-loop clients and fleet jobs never exceed the core count.
CLIENTS = min(2, len(os.sched_getaffinity(0)))
# Set-up is repeated from scratch and its median reported.
SETUP_REPEATS = 3
# check-cold runs the sequential explorer (`check --threads 1`). With the
# default (one explorer thread per core) even a light manifest hands work
# between cores, and the time that takes depends on what else the host runs
# on the other core, not on the program.
CHECK_THREADS = 1
# Seeded copies of the 19-manifest corpus the fleet gate covers.
FLEET_COPIES = 2
# What fleet-edit does to each file, in this order.
EDIT_KINDS = ("rename", "comment", "reformat", "revert")
# serve-mixed requests come in shuffled blocks of these five, so every run
# has the same shares: 60% memo repeats, 20% reformatted sources and 20%
# fresh manifests.
SERVE_BLOCK = ("repeat", "repeat", "repeat", "reformat", "fresh")
OP_TIMEOUT_S = 60.0

perf = time.perf_counter
# Daemons still running; `main` stops them whatever way the run ends.
DAEMONS = []


def fail(message):
    """Set-up or build failure: no result line, non-zero exit."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------- build


@dataclass
class Bins:
    rehearsal: str
    probe: str


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest in (ROOT / "Cargo.toml", ROOT / "perfbench" / "Cargo.toml"):
        if not manifest.is_file():
            fail(f"{manifest.relative_to(ROOT)} is missing; run from the repository root")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest)]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"cargo build failed for {manifest.relative_to(ROOT)}")
    return Bins(str(target / "release" / "rehearsal"), str(target / "release" / "perfbench"))


# ---------------------------------------------------------------- processes


@dataclass
class Proc:
    code: int
    out: bytes
    wall_s: float
    maxrss_kb: int
    timed_out: bool


def run_proc(argv, timeout=OP_TIMEOUT_S):
    """Runs one process to completion; times it from spawn to reap."""
    start = perf()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out, code, rss, timed_out = reap(p, timeout)
    return Proc(code, out, perf() - start, rss, timed_out)


def reap(p, timeout):
    """Reads a started process's stdout, if piped, and waits for it; kills
    it after `timeout` seconds. Its peak RSS comes from `wait4`. Returns
    (stdout, exit code, peak RSS in KiB, timed out)."""
    killed = threading.Event()

    def kill():
        killed.set()
        p.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out = p.stdout.read() if p.stdout else b""
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        if p.stdout:
            p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return out, p.returncode, usage.ru_maxrss, killed.is_set()


def probe(bins, *args):
    proc = run_proc([bins.probe, *map(str, args)])
    if proc.code != 0 or proc.timed_out:
        raise RuntimeError(f"perfbench {' '.join(map(str, args))} exited {proc.code}")
    return json.loads(proc.out)


# ---------------------------------------------------------------- accounting


class Tally:
    """Attempts, failures (errors, timeouts, refusals, wrong verdicts) and
    the wrong verdicts themselves, which fail the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.lock = threading.Lock()

    def record(self, problem=None, wrong=False):
        with self.lock:
            self.attempted += 1
            if problem:
                self.failed += 1
                if wrong:
                    self.wrong.append(problem)


def expected_label(pin):
    return "deterministic" if pin["deterministic"] else "nondeterministic"


def check_problem(proc, pin, name):
    """(problem, wrong) for one `rehearsal check --json` run."""
    if proc.timed_out:
        return f"{name}: timeout", False
    try:
        doc = json.loads(proc.out)
    except ValueError:
        return f"{name}: exit {proc.code} without a JSON verdict", False
    got = (doc.get("deterministic"), doc.get("idempotent"), doc.get("verdict"), proc.code)
    want = (pin["deterministic"], pin["idempotent"], expected_label(pin),
            0 if pin["deterministic"] else 1)
    if got != want:
        return f"{name}: got {got}, pinned {want}", True
    return None, False


def verdict_problem(label, pin, name):
    if label in (None, "error", "timeout"):
        return f"{name}: {label}", False
    if label != expected_label(pin):
        return f"{name}: verdict {label}, pinned {expected_label(pin)}", True
    return None, False


def rows_problem(rows, pins, corpus):
    """(problem, wrong) for one fleet report: a pinned verdict per manifest."""
    if len(rows) != len(corpus):
        return f"gate: {len(rows)} rows for {len(corpus)} manifests", False
    for manifest, label in rows.items():
        problem = verdict_problem(label, pins[stem(manifest)], manifest)
        if problem[0]:
            return problem
    return None, False


def gate_problem(proc, rows, pins, corpus):
    """(problem, wrong) for one `rehearsal fleet` gate: every row and the
    exit code (1 iff some manifest fails)."""
    if proc.timed_out:
        return "gate: timeout", False
    problem = rows_problem(rows, pins, corpus)
    if problem[0]:
        return problem
    want_code = 0 if all(pins[stem(m)]["deterministic"] for m in corpus) else 1
    if proc.code != want_code:
        return f"gate: exit {proc.code}, pinned {want_code}", True
    return None, False


def stem(path):
    """The pinned name of a generated manifest (copies and fresh names
    carry a `--suffix`)."""
    return Path(path).stem.split("--")[0]


# ---------------------------------------------------------------- statistics


def pct(values, q):
    """The q-quantile (0..1) by linear interpolation."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def need_tail(values, q, what):
    beyond = len(values) * (1 - q)
    if beyond < 10:
        print(f"perfbench: warning: {what} has {beyond:.0f} samples beyond it (< 10)",
              file=sys.stderr)


def mean(values):
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------- inputs


@dataclass
class Input:
    name: str
    path: Path
    metadata: bool


def write_suite(seed, dest, label="check"):
    """The 25-manifest suite under one consistent renaming."""
    dest.mkdir(parents=True, exist_ok=True)
    renamer = gen.Renamer(gen.seeded(seed, label, "rename"))
    out = []
    for m in gen.suite(ROOT):
        path = dest / f"{m.name}.pp"
        path.write_text(renamer.rename(m.text))
        out.append(Input(m.name, path, m.metadata))
    return out


def check_argv(bins, item):
    argv = [bins.rehearsal, "check", str(item.path), "--json", "--threads", str(CHECK_THREADS)]
    return argv + ["--model-metadata"] if item.metadata else argv


def probe_check_args(item):
    """The probe's `check` arguments matching `check_argv`."""
    flags = ["--metadata"] if item.metadata else []
    return ["check", item.path, "--threads", CHECK_THREADS, *flags]


def one_resource_manifest(seed, dest):
    path = dest / "one.pp"
    text = gen.Renamer(gen.seeded(seed, "one")).rename(
        "file { '/etc/motd': content => 'welcome to the machine' }\n")
    path.write_text(text)
    return path


def startup_us(bins, seed, dest, pins, tally, runs=21):
    """Median wall time of the binary on a one-resource manifest."""
    item = Input("one", one_resource_manifest(seed, dest), False)
    pin = {"deterministic": True, "idempotent": True}
    walls = []
    for _ in range(runs):
        proc = run_proc(check_argv(bins, item))
        tally.record(*check_problem(proc, pin, "one.pp"))
        walls.append(proc.wall_s * 1e6)
    return statistics.median(walls)


# ---------------------------------------------------------------- check-cold


def check_cold(ctx):
    setups = []
    for i in range(SETUP_REPEATS):
        start = perf()
        items = write_suite(ctx.seed, ctx.fresh_dir(f"setup{i}"))
        # One priming pass: the first run of the binary on each input.
        for item in items:
            proc = run_proc(check_argv(ctx.bins, item))
            ctx.tally.record(*check_problem(proc, ctx.pins[item.name], item.name))
        setups.append(perf() - start)
    order = gen.seeded(ctx.seed, "order")
    if ctx.trace:
        return check_cold_traced(ctx, items, order)

    # Whole passes only: every manifest is checked equally often, so the
    # medians do not move with where the deadline cuts a pass. One pass is
    # what a pre-commit hook over the suite pays; its median is the
    # workload's `latency_ms_p50`. The median single check (`check_ms_p50`)
    # is printed but not reported: a light check spends about half its time
    # in start-up work that takes twice as long under a memory-bandwidth
    # load on the other core, so on a shared host it spreads by up to a
    # third between runs of the same code.
    per_manifest = {item.name: [] for item in items}
    walls, pass_ms, rss = [], [], 0
    start = perf()
    deadline = start + ctx.seconds
    while perf() < deadline:
        order.shuffle(items)
        pass_start = perf()
        for item in items:
            proc = run_proc(check_argv(ctx.bins, item))
            problem = check_problem(proc, ctx.pins[item.name], item.name)
            ctx.tally.record(*problem)
            if not problem[0]:
                walls.append(proc.wall_s * 1e3)
                per_manifest[item.name].append(proc.wall_s * 1e3)
            rss = max(rss, proc.maxrss_kb)
        pass_ms.append((perf() - pass_start) * 1e3)
    elapsed = perf() - start
    worst_name, worst = max(
        ((n, statistics.median(v)) for n, v in per_manifest.items() if v),
        key=lambda nv: nv[1])
    need_tail(pass_ms, 0.5, "suite_ms_p50")
    need_tail(per_manifest[worst_name], 0.5, f"check_ms_worst ({worst_name})")
    ctx.report("check-cold", [
        ("checks_per_s", len(walls) / elapsed, "1/s"),
        ("check_ms_p50", statistics.median(walls), "ms"),
        ("check_ms_worst", worst, "ms"),
        ("suite_ms_p50", statistics.median(pass_ms), "ms"),
    ], f"{len(walls)} checks in {len(pass_ms)} passes; slowest manifest {worst_name} "
       f"({len(per_manifest[worst_name])} samples)")
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss / 1024,
        "throughput_per_s": len(walls) / elapsed,
        "latency_ms_p50": statistics.median(pass_ms),
        "latency_ms_tail": worst,
    }


def check_cold_traced(ctx, items, order):
    """Per manifest, in passes: the CLI check (end to end), the probe
    without a trace session, and the probe with one."""
    layers = LayerSums()
    e2e_us, overhead_us = [], []
    deadline = perf() + ctx.seconds
    while perf() < deadline or not e2e_us:
        order.shuffle(items)
        for item in items:
            pin = ctx.pins[item.name]
            proc = run_proc(check_argv(ctx.bins, item))
            ctx.tally.record(*check_problem(proc, pin, item.name))
            plain = probe(ctx.bins, *probe_check_args(item))
            traced = probe(ctx.bins, *probe_check_args(item), "--traced")
            for doc in (plain, traced):
                got = {"deterministic": doc["deterministic"], "idempotent": doc["idempotent"]}
                want = {k: pin[k] for k in got}
                ctx.tally.record(*((f"{item.name}: probe {got}, pinned {want}", True)
                                   if got != want else (None, False)))
            e2e_us.append(proc.wall_s * 1e6)
            overhead_us.append(traced["wall_us"] - plain["wall_us"])
            layers.add(traced)
    n = len(e2e_us)
    per = {k: v / n for k, v in layers.sums.items()}
    timed = sum(per[k] for k in ("parse_us", "eval_us", "lower_us", "determinism_us",
                                 "idempotence_us", "lint_us"))
    return {
        "puppet.parse_us": per["parse_us"],
        "puppet.eval_us": per["eval_us"],
        "resources.lower_us": per["lower_us"],
        "resources.count": per["resources"],
        "fs.arena_nodes": per["arena_nodes"],
        "cli.startup_us": startup_us(ctx.bins, ctx.seed, ctx.fresh_dir("one"), ctx.pins,
                                     ctx.tally),
        "core.determinism_us": per["determinism_us"],
        "core.eliminate_us": per["eliminate_us"],
        "core.prune_us": per["prune_us"],
        "core.explore_us": per["explore_us"],
        "core.explore_sequences": per["explore_sequences"],
        "core.state_cache_hits": per["state_cache_hits"],
        "core.tracked_paths_ratio": ratio(layers.sums["tracked_paths"],
                                          layers.sums["domain_paths"]),
        "core.idempotence_us": per["idempotence_us"],
        "core.idempotence_solve_us": per["idempotence_solve_us"],
        "core.idempotence_encode_us": per["idempotence_us"] - per["idempotence_solve_us"],
        "solver.conflicts": per["conflicts"],
        "solver.decisions": per["decisions"],
        "solver.propagations": per["propagations"],
        "solver.formula_nodes": per["formula_nodes"],
        "lint.lint_us": per["lint_us"],
        "lint.findings": per["findings"],
        "trace.e2e_us": mean(e2e_us),
        "trace.overhead_us": mean(overhead_us),
        "trace.unattributed_frac": unattributed(mean(e2e_us), timed, "check layers"),
    }


class LayerSums:
    def __init__(self):
        self.sums = {}

    def add(self, doc):
        for key, value in doc.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.sums[key] = self.sums.get(key, 0.0) + value


def unattributed(e2e, timed, layers):
    """The share of end-to-end time that the timed layers leave out. The
    layers are timed in the probe, a different binary from the CLI; when
    they add up to more than the CLI's own end-to-end time, the probe ran
    slower than the program it stands for, and the run says so."""
    frac = (e2e - timed) / e2e
    if frac < 0:
        print(f"perfbench: warning: the probe's {layers} ({timed:.0f} us) exceed the "
              f"end-to-end time ({e2e:.0f} us); these layer times are not the program's",
              file=sys.stderr)
    return frac


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------- fleet-edit


class Corpus:
    """FLEET_COPIES seeded copies of the 19-manifest corpus, each under its
    own renaming, and the seeded edit schedule."""

    def __init__(self, seed, dest):
        self.root = dest / "corpus"
        self.root.mkdir(parents=True)
        self.files = []
        for copy in range(FLEET_COPIES):
            renamer = gen.Renamer(gen.seeded(seed, "fleet", copy))
            for m in gen.suite(ROOT):
                if m.metadata:
                    continue
                path = self.root / f"{m.name}--c{copy}.pp"
                path.write_text(renamer.rename(m.text))
                self.files.append(path)
        self.renamer = gen.Renamer(gen.seeded(seed, "fleet", "edits"))
        self.rng = gen.seeded(seed, "fleet", "steps")
        self.order = []
        self.pipeline = []
        self.plan = []
        self.before_reformat = {}
        self.steps = 0

    def next_file(self):
        """The next file in a stream of seeded permutations of the corpus.
        A file never comes back within 4 picks, so its four edits (see
        `edit`) have finished before it is renamed again."""
        if not self.order:
            recent = set(self.pipeline[:len(EDIT_KINDS) - 1])
            files = list(self.files)
            self.rng.shuffle(files)
            while recent & set(files[:len(EDIT_KINDS) - 1]):
                self.rng.shuffle(files)
            self.order = files[::-1]
        return self.order.pop()

    def edit(self):
        """Applies the next seeded edit. Edits run as a pipeline: each tick
        renames a content literal that occurs once in the next file (sliced
        re-analysis), comments the file renamed one tick earlier (replay),
        re-indents the one before that (replay) and reverts that
        re-indentation in the one before that (store hit). Every stretch
        of the run thus has the same mix, and only the order of the files
        and the new names vary with the seed."""
        if not self.plan:
            self.pipeline = [self.next_file()] + self.pipeline[:len(EDIT_KINDS) - 1]
            self.plan = list(zip(self.pipeline, EDIT_KINDS))[::-1]
        path, kind = self.plan.pop()
        self.steps += 1
        text = path.read_text()
        if kind == "revert":
            path.write_text(self.before_reformat.pop(path))
            return
        new = None
        if kind == "rename":
            new = gen.unique_literal_edit(text, self.rng, self.renamer)
        if kind == "reformat":
            self.before_reformat[path] = text
            new = gen.reformat_edit(text, self.rng)
        if new is None:
            new = gen.comment_edit(text, self.rng, self.steps)
        path.write_text(new)


def gate_argv(bins, d, store=None):
    """The CI gate over `d`'s corpus, with the stores in `store` (default `d`)."""
    store = store or d
    return [bins.rehearsal, "fleet", str(d / "corpus"), "--jobs", str(CLIENTS),
            "--cache", str(store / "cache.jsonl"), "--baseline", str(store / "baseline.jsonl"),
            "--json"]


def run_gate(ctx, argv, corpus_files):
    proc = run_proc(argv)
    try:
        rows = {r["manifest"]: r["verdict"] for r in json.loads(proc.out)["manifests"]}
    except (ValueError, KeyError, TypeError):
        rows = {}
    problem = gate_problem(proc, rows, ctx.pins, corpus_files)
    ctx.tally.record(*problem)
    return proc, problem[0] is None


def fleet_edit(ctx):
    setups = []
    for i in range(SETUP_REPEATS):
        start = perf()
        d = ctx.fresh_dir(f"setup{i}")
        corpus = Corpus(ctx.seed, d)
        run_gate(ctx, gate_argv(ctx.bins, d), corpus.files)
        setups.append(perf() - start)
    if ctx.trace:
        return fleet_edit_traced(ctx, d, corpus)

    walls, rss = [], 0
    start = perf()
    deadline = start + ctx.seconds
    while perf() < deadline:
        corpus.edit()
        proc, ok = run_gate(ctx, gate_argv(ctx.bins, d), corpus.files)
        if ok:
            walls.append(proc.wall_s * 1e3)
        rss = max(rss, proc.maxrss_kb)
    elapsed = perf() - start
    need_tail(walls, 0.9, "gate_ms_p90")
    ctx.report("fleet-edit", [
        ("gate_ms_p50", statistics.median(walls), "ms"),
        ("gate_ms_p90", pct(walls, 0.9), "ms"),
    ], f"{len(walls)} gates over {len(corpus.files)} manifests")
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss / 1024,
        "throughput_per_s": len(walls) / elapsed,
        "latency_ms_p50": statistics.median(walls),
        "latency_ms_tail": pct(walls, 0.9),
    }


def fleet_edit_traced(ctx, d, corpus):
    """Per edit: the CLI gate and the untraced probe each on a copy of the
    stores, then the traced probe on the stores the run carries on with."""
    layers = LayerSums()
    e2e_us, overhead_us, steps = [], [], 0
    deadline = perf() + ctx.seconds
    while perf() < deadline or not steps:
        corpus.edit()
        copies = []
        for label in ("cli", "plain"):
            copy = d / label
            copy.mkdir(exist_ok=True)
            for store in ("cache.jsonl", "baseline.jsonl"):
                shutil.copyfile(d / store, copy / store)
            copies.append(copy)
        proc, _ = run_gate(ctx, gate_argv(ctx.bins, d, copies[0]), corpus.files)
        runs = []
        for store, flags in ((copies[1], []), (d, ["--traced"])):
            doc = probe(ctx.bins, "fleet", d / "corpus", "--jobs", CLIENTS,
                        "--cache", store / "cache.jsonl", "--baseline", store / "baseline.jsonl",
                        *flags)
            ctx.tally.record(*rows_problem(doc["verdicts"], ctx.pins, corpus.files))
            runs.append(doc)
        e2e_us.append(proc.wall_s * 1e6)
        overhead_us.append(runs[1]["wall_us"] - runs[0]["wall_us"])
        layers.add(runs[1])
        steps += 1
    s = layers.sums
    per = {k: v / steps for k, v in s.items()}
    determinism = per["eliminate_us"] + per["prune_us"] + per["explore_us"]
    timed = per["store_open_us"] + per["run_us"] + per["flush_us"]
    return {
        "puppet.parse_us": per["parse_us"],
        "puppet.eval_us": per["eval_us"],
        "resources.lower_us": per["lower_us"],
        "resources.count": per["resources"],
        "fs.arena_nodes": per["arena_nodes"],
        "cli.startup_us": startup_us(ctx.bins, ctx.seed, ctx.fresh_dir("one"), ctx.pins,
                                     ctx.tally),
        "core.determinism_us": determinism,
        "core.eliminate_us": per["eliminate_us"],
        "core.prune_us": per["prune_us"],
        "core.explore_us": per["explore_us"],
        "core.explore_sequences": per["explore_sequences"],
        "core.state_cache_hits": per["state_cache_hits"],
        "core.idempotence_us": per["idempotence_us"],
        "solver.conflicts": per["conflicts"],
        "solver.decisions": per["decisions"],
        "solver.propagations": per["propagations"],
        "solver.formula_nodes": per["formula_nodes"],
        "fleet.store_open_us": per["store_open_us"],
        "fleet.store_flush_us": per["flush_us"],
        "fleet.store_bytes": per["store_bytes"],
        "fleet.run_us": per["run_us"],
        "fleet.rows_cached": per["rows_cached"],
        "fleet.rows_cold": per["rows"] - per["rows_cached"],
        "fleet.pairs_reused": per["pairs_reused"],
        "fleet.reuse_ratio": ratio(s["rows_cached"], s["rows"]),
        "trace.e2e_us": mean(e2e_us),
        "trace.overhead_us": mean(overhead_us),
        "trace.unattributed_frac": unattributed(mean(e2e_us), timed,
                                                "store open + run + flush"),
    }


# ---------------------------------------------------------------- serve-mixed


class Daemon:
    """`rehearsal serve` on an ephemeral loopback port with a fresh state
    directory."""

    def __init__(self, bins, d):
        self.log = d / "serve.log"
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [bins.rehearsal, "serve", "--addr", "127.0.0.1:0",
                 "--state-dir", str(d / "state")],
                stdout=subprocess.DEVNULL, stderr=log)
        DAEMONS.append(self.proc)
        deadline = perf() + OP_TIMEOUT_S
        while True:
            match = re.search(r"listening on http://(\S+)", self.log.read_text(errors="replace"))
            if match:
                self.host, port = match.group(1).rsplit(":", 1)
                self.port = int(port)
                break
            if self.proc.poll() is not None or perf() > deadline:
                fail(f"serve did not start: {self.log.read_text(errors='replace')}")
            time.sleep(0.002)
        while True:
            try:
                if self.request("GET", "/v1/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if perf() > deadline:
                fail("serve never became healthy")
            time.sleep(0.002)

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=OP_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self):
        """Shuts down through `/v1/shutdown`; returns (clean exit, peak RSS KiB)."""
        if self.proc.returncode is not None:
            return False, 0
        try:
            status = self.request("POST", "/v1/shutdown")[0]
        except OSError:
            status = None
        _, code, rss, timed_out = reap(self.proc, OP_TIMEOUT_S)
        return status == 200 and code == 0 and not timed_out, rss


def post(daemon, payload):
    try:
        return daemon.request("POST", "/v1/check", payload)
    except OSError as e:
        return f"error ({e})", b""


def body(name, text, metadata):
    return json.dumps({"manifest": f"{name}.pp", "source": text, "model_metadata": metadata})


class Mix:
    """One client's seeded request stream over the primed suite. Each kind
    of request walks the suite in its own seeded order, so every manifest
    is drawn equally often for each kind."""

    def __init__(self, seed, client, primed):
        self.client = client
        self.primed = primed
        self.rng = gen.seeded(seed, "serve", client)
        self.renamer = gen.Renamer(gen.seeded(seed, "serve", client, "fresh"))
        self.n = 0
        self.kinds = []
        self.cycles = {}

    def next(self):
        """(kind, pinned name, request body)."""
        self.n += 1
        if not self.kinds:
            self.kinds = list(SERVE_BLOCK)
            self.rng.shuffle(self.kinds)
        kind = self.kinds.pop()
        cycle = self.cycles.setdefault(kind, [])
        if not cycle:
            cycle.extend(self.primed)
            self.rng.shuffle(cycle)
        item, text = cycle.pop()
        if kind == "repeat":
            return kind, item.name, body(item.name, text, item.metadata)
        if kind == "reformat":
            tag = f"c{self.client}-{self.n}"
            edited = gen.reformat_edit(gen.comment_edit(text, self.rng, tag), self.rng)
            return kind, item.name, body(item.name, edited, item.metadata)
        fresh = gen.Renamer(self.rng, self.renamer.used)
        name = f"{item.name}--f{self.client}-{self.n}"
        return kind, item.name, body(name, fresh.rename(text), item.metadata)


def serve_problem(status, payload, pin, name):
    if status != 200:
        return f"{name}: HTTP {status}", False
    try:
        label = json.loads(payload).get("verdict")
    except ValueError:
        return f"{name}: unreadable response", False
    return verdict_problem(label, pin, name)


def start_and_prime(ctx, d):
    items = write_suite(ctx.seed, d / "inputs", "serve")
    primed = [(item, item.path.read_text()) for item in items]
    daemon = Daemon(ctx.bins, d)
    for item, text in primed:
        status, payload = post(daemon, body(item.name, text, item.metadata))
        ctx.tally.record(*serve_problem(status, payload, ctx.pins[item.name], item.name))
    return daemon, primed


def serve_mixed(ctx):
    setups = []
    for i in range(SETUP_REPEATS):
        start = perf()
        d = ctx.fresh_dir(f"setup{i}")
        daemon, primed = start_and_prime(ctx, d)
        setups.append(perf() - start)
        if i + 1 < SETUP_REPEATS:
            clean, _ = daemon.stop()
            ctx.tally.record(None if clean else "serve: unclean shutdown")
    if ctx.trace:
        return serve_mixed_traced(ctx, daemon, primed, d)

    latencies = [[] for _ in range(CLIENTS)]
    start = perf()
    deadline = start + ctx.seconds

    def client(c):
        mix = Mix(ctx.seed, c, primed)
        while perf() < deadline:
            _, name, payload = mix.next()
            t = perf()
            status, reply = post(daemon, payload)
            problem = serve_problem(status, reply, ctx.pins[name], name)
            ctx.tally.record(*problem)
            if not problem[0]:
                latencies[c].append((perf() - t) * 1e3)

    run_clients(client)
    elapsed = perf() - start
    clean, rss = daemon.stop()
    ctx.tally.record(None if clean else "serve: unclean shutdown")
    walls = [x for per_client in latencies for x in per_client]
    need_tail(walls, 0.99, "request_ms_p99")
    ctx.report("serve-mixed", [
        ("requests_per_s", len(walls) / elapsed, "1/s"),
        ("request_ms_p50", statistics.median(walls), "ms"),
        ("request_ms_p99", pct(walls, 0.99), "ms"),
    ], f"{len(walls)} requests from {CLIENTS} clients")
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss / 1024,
        "throughput_per_s": len(walls) / elapsed,
        "latency_ms_p50": statistics.median(walls),
        "latency_ms_tail": pct(walls, 0.99),
    }


def run_clients(client):
    threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def serve_mixed_traced(ctx, daemon, primed, d):
    """A fixed seeded request plan, sent over HTTP to the daemon (end to
    end), then replayed through `Service::handle` by the probe without
    and with a trace session."""
    per_client = max(20, ctx.seconds * 10)
    plan = []
    for c in range(CLIENTS):
        mix = Mix(ctx.seed, c, primed)
        plan.append([mix.next() for _ in range(per_client)])
    latencies = []

    def client(c):
        for _, name, payload in plan[c]:
            t = perf()
            status, reply = post(daemon, payload)
            latencies.append((perf() - t) * 1e6)
            ctx.tally.record(*serve_problem(status, reply, ctx.pins[name], name))

    run_clients(client)
    clean, _ = daemon.stop()
    ctx.tally.record(None if clean else "serve: unclean shutdown")

    requests = d / "requests.jsonl"
    lines = [body(item.name, text, item.metadata) for item, text in primed]
    for c, reqs in enumerate(plan):
        lines += [json.dumps(dict(json.loads(payload), client=c)) for _, _, payload in reqs]
    requests.write_text("\n".join(lines) + "\n")
    runs = []
    for label, flags in (("plain", []), ("traced", ["--traced"])):
        doc = probe(ctx.bins, "serve", requests, "--state-dir", d / f"probe-{label}", *flags)
        for c, results in enumerate(doc["results"]):
            for (_, name, _), r in zip(plan[c], results):
                ctx.tally.record(*serve_problem(
                    r["status"], json.dumps({"verdict": r["verdict"]}), ctx.pins[name], name))
        runs.append(doc)
    traced = runs[1]
    n = traced["hits"] + traced["misses"]
    handle = (traced["handle_hit_us"] + traced["handle_miss_us"]) / n
    e2e = mean(latencies)
    determinism = traced["eliminate_us"] + traced["prune_us"] + traced["explore_us"]
    return {
        "puppet.parse_us": traced["parse_us"] / n,
        "puppet.eval_us": traced["eval_us"] / n,
        "resources.lower_us": traced["lower_us"] / n,
        "fs.arena_nodes": traced["arena_nodes"] / n,
        "core.determinism_us": determinism / n,
        "core.eliminate_us": traced["eliminate_us"] / n,
        "core.prune_us": traced["prune_us"] / n,
        "core.explore_us": traced["explore_us"] / n,
        "core.idempotence_us": traced["idempotence_us"] / n,
        "solver.conflicts": traced["conflicts"] / n,
        "solver.decisions": traced["decisions"] / n,
        "solver.propagations": traced["propagations"] / n,
        "serve.handle_hit_us": ratio(traced["handle_hit_us"], traced["hits"]),
        "serve.handle_miss_us": ratio(traced["handle_miss_us"], traced["misses"]),
        "serve.memo_hit_ratio": traced["hits"] / n,
        "serve.transport_us": e2e - handle,
        "trace.e2e_us": e2e,
        "trace.overhead_us": (runs[1]["wall_us"] - runs[0]["wall_us"]) / n,
        "trace.unattributed_frac": unattributed(e2e, handle, "Service::handle times"),
    }


# ---------------------------------------------------------------- main


WORKLOADS = {"check-cold": check_cold, "fleet-edit": fleet_edit, "serve-mixed": serve_mixed}


class Context:
    def __init__(self, args, bins, pins, work):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.bins = bins
        self.pins = pins
        self.work = work
        self.tally = Tally()

    def fresh_dir(self, label):
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.work))

    def report(self, workload, named, note):
        """The workload's own end-to-end names, for people reading stderr."""
        shown = ", ".join(f"{name}={value:.4g} {unit}" for name, value, unit in named)
        print(f"{workload}: {shown} ({note})", file=sys.stderr)


def emit(spec, trace, tally, values):
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    if not trace:
        values["success_frac"] = (tally.attempted - tally.failed) / max(1, tally.attempted)
    unknown = set(values) - set(declared)
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if not trace and set(declared) - set(values):
        fail(f"end-to-end metrics not measured: {sorted(set(declared) - set(values))}")
    # Layers a workload does not run did no work on it.
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    correct = not tally.wrong
    for problem in tally.wrong:
        print(f"perfbench: WRONG VERDICT: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def self_test(seeds, bins):
    """Every generated input, for each seed, gets its pinned verdict from
    the library (through the probe), and the generator keeps its
    promises: renaming is consistent and injective, edits touch only what
    they should."""
    pins = probe(bins, "pins")
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench_tmp()))
    bad = []
    try:
        for seed in seeds:
            d = work / f"seed{seed}"
            variants = []
            for item in write_suite(seed, d / "suite"):
                text = item.path.read_text()
                original = next(m.text for m in gen.suite(ROOT) if m.name == item.name)
                before, after = gen.literals(original), gen.literals(text)
                if len(set(before)) != len(set(after)) or \
                        len(set(zip(before, after))) != len(set(before)):
                    bad.append(f"seed {seed} {item.name}: renaming not consistent/injective")
                rng = gen.seeded(seed, "selftest", item.name)
                renamer = gen.Renamer(rng)
                edited = gen.unique_literal_edit(text, rng, renamer)
                if edited is not None:
                    changed = [a != b for a, b in zip(after, gen.literals(edited))]
                    if sum(changed) != 1:
                        bad.append(f"seed {seed} {item.name}: unique edit changed {sum(changed)}")
                commented = gen.comment_edit(text, rng, "t")
                reformatted = gen.reformat_edit(text, rng)
                for label, variant in (("comment", commented), ("reformat", reformatted)):
                    if gen.literals(variant) != after or variant == text:
                        bad.append(f"seed {seed} {item.name}: {label} edit touched a literal "
                                   "or changed nothing")
                fresh = gen.Renamer(rng).rename(text)
                for label, variant in (("unique", edited), ("comment", commented),
                                       ("reformat", reformatted), ("fresh", fresh)):
                    if variant is not None:
                        path = d / f"{item.name}--{label}.pp"
                        path.write_text(variant)
                        variants.append(Input(item.name, path, item.metadata))
                variants.append(item)
            for item in variants:
                doc = probe(bins, *probe_check_args(item))
                got = (doc["deterministic"], doc["idempotent"])
                pin = pins[item.name]
                if got != (pin["deterministic"], pin["idempotent"]):
                    bad.append(f"seed {seed} {item.path.name}: got {got}, pinned {pin}")
            print(f"seed {seed}: {len(variants)} inputs checked", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in bad:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("FAILED" if bad else "passed"), file=sys.stderr)
    return 1 if bad else 0


def bench_tmp():
    path = ROOT / ".bench_tmp"
    path.mkdir(exist_ok=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    # A terminated run still stops its daemons and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not SPEC.is_file():
        fail("BENCHMARK.json is missing; run from the repository root")
    spec = json.loads(SPEC.read_text())
    bins = build()
    if args.self_test:
        return self_test(args.seeds, bins)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=bench_tmp()))
    try:
        ctx = Context(args, bins, probe(bins, "pins"), work)
        values = WORKLOADS[args.workload](ctx)
        return emit(spec, ctx.trace, ctx.tally, values)
    except RuntimeError as e:
        fail(str(e))
    finally:
        for proc in DAEMONS:
            if proc.returncode is None:
                proc.kill()
                reap(proc, OP_TIMEOUT_S)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
