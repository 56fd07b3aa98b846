"""The repository benchmark: compile suites and a warm service loop.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --pin

Workloads (the reasons are also in ``BENCHMARK.json``):

``cold_suite``
    The 42 compiles (21 workloads x ``hvx``, ``neon``) in an order
    permuted by the seed, default knobs, one verdict store that starts
    empty and that every compile opens, as separate ``repro compile
    --cache`` runs would.  Paper Table 1's cost: banks, batched
    denotation, fingerprints and enumeration.
``warm_replay``
    The same compiles against a store that already holds every verdict
    (filled in another process before timing): store reload and query-key
    hashing, no bank and no fingerprint.
``rules_replay``
    Rule libraries for both targets (mined before timing) and an
    in-memory verdict cache only: the only workload where ``repro.rules``
    loads and matches.
``service_warm``
    ``repro serve`` with its default 2 workers in its own process,
    restarted on a store that holds every verdict (``--cache-dir``), and
    a closed loop of 2 client threads calling ``ServiceClient.compile`` on
    seeded passes over the 42 keys, after one warm-up compile per key:
    admission, queueing, HTTP and delivery.  It is run by hand only and
    is not listed in ``BENCHMARK.json``: the client polls on a fixed
    schedule (50 ms, then 1.5x longer each time), and the few slowest
    jobs finish close to one of the poll times, so a small change in the
    host's speed moves them to the next poll and latency_p95_ms jumps by
    a third between runs of the same code.  A client that does not poll
    would let it be gated.

Every batch suite runs in a fresh interpreter (``worker.py``).  A run
repeats suites (or service passes) while one more still fits in
``--seconds`` (at least ``MIN_REPS``) and reports medians; every other
suite compiles in the reverse order.  ``--trace 1`` alternates untraced
and traced suites and reports the per-layer metrics of ``layers.py`` from
the traced ones.

The host is shared and its speed drifts by 2x within an hour, so the
end-to-end times are reported in seconds of a reference machine: a fixed
probe of the benchmark's own (``speed.py``) runs before and after every
compile and every service pass, and each compile's time, or the part of
each request's latency that is not the client's poll sleeps, is scaled
by the probes around it.  A batch set-up time is scaled by the probes
just after it, the service's by the run's mean probe.  The unscaled
times and the speed factor are printed and saved beside them.  setup_s
is the median of at least ``SETUP_SAMPLES`` set-ups in a batch run:
each suite's, then fresh interpreters that only set up.

For one workload, the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it (all of the output for ``--workload all``) print every
metric with its unit, the raw ``fail_rate`` and ``selection_changes``,
the oracle query counts and the machine stamps.  The full record of the
run goes to ``.perfbench/results/``; the verdict store and rule libraries
the warm workloads start from are built once per program source under
``.perfbench/fixtures/``.

``fail_rate`` and ``selection_changes`` are 0 when all is well, so the
end-to-end metrics carry them as ``ops_ok_frac`` (1 - fail_rate) and
``listings_pinned_frac`` (the share of compiles whose listings equal the
pinned ones): a metric that reads 0 has no relative spread.

``--pin`` compiles the 42 once and rewrites ``reference_listings.json``,
the pinned selections that ``selection_changes`` counts against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import layers
import speed
from layers import COLD, RULES, SERVICE, WARM

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = (COLD, WARM, RULES, SERVICE)
TARGETS = ("hvx", "neon")

#: every workload run, fixtures and checks included, ends within this
#: budget (the contract allows 180 s)
RUN_BUDGET_S = 170.0
#: fewest measured suites (or service passes) in a run
MIN_REPS = 2
#: setup_s samples in a batch run: one per suite, and fresh interpreters
#: that only set up make up the rest (a cold run fits two suites)
SETUP_SAMPLES = 5
#: server starts per service run; each gives one setup_s sample
SERVER_STARTS = 4
#: closed-loop client threads of the service workload (``nproc`` = 2)
CLIENTS = 2
#: speed probes per sample in the service workload (about 10 ms each)
PROBES_PER_SAMPLE = 3

class BenchError(RuntimeError):
    """The benchmark itself could not run."""


_deadline = [time.monotonic() + RUN_BUDGET_S]


def remaining_s() -> float:
    return _deadline[0] - time.monotonic()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def all_keys() -> list:
    """``<target>/<workload>`` for the 21 workloads and both targets."""
    from repro.workloads.base import names

    return [f"{target}/{name}" for target in TARGETS for name in names()]


def quantile(values: list, q: float) -> float:
    """The Harrell-Davis estimate of the ``q`` quantile.

    It weights every order statistic by a Beta((n+1)q, (n+1)(1-q))
    density, so the estimate moves smoothly when samples fall into the
    clusters the service client's poll schedule creates (a plain order
    statistic jumps from one cluster to the next).
    """
    import math

    import numpy as np

    data = np.sort(np.asarray(values, dtype=float))
    n = len(data)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = ((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
               - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    pdf = np.exp(log_pdf)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2
                                           * np.diff(grid))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ data)


# -- batch workloads ---------------------------------------------------------


def spawn_worker(cfg: dict, work: Path) -> dict:
    """Run ``worker.py`` on ``cfg`` in a fresh interpreter.

    The result carries ``setup_s``: from just before the process is
    started to the worker's ready mark.  ``time.monotonic`` is the
    system-wide monotonic clock, so the two processes' readings compare.
    """
    path = work / f"cfg-{cfg['name']}.json"
    cfg["out"] = str(work / f"out-{cfg['name']}.json")
    path.write_text(json.dumps(cfg))
    timeout = remaining_s()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {cfg['name']} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {cfg['name']} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(Path(cfg["out"]).read_text())
    if "t_ready" in result:
        result["setup_s"] = result["t_ready"] - t_spawn
    return result


def src_digest() -> str:
    """SHA-256 over the program's source files, names included."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fixture_dir(work: Path) -> Path:
    """The full verdict store and the mined rule libraries.

    Their content depends on the program alone, not on the seed, so they
    are built once per program source (in a separate process, before any
    timing) and reused by later runs in the same checkout.
    """
    path = WORK / "fixtures" / src_digest()
    if not path.exists():
        tmp = WORK / "fixtures" / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        spawn_worker({
            "name": "fixture", "mode": "fixture", "order": all_keys(),
            "store": str(tmp / "store"), "rules": str(tmp / "rules"),
        }, work)
        try:
            os.rename(tmp, path)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            if not path.exists():
                raise
    return path


def more_reps(done: int, start: float, walls: list, seconds: float) -> bool:
    """Whether to start another suite (or pass): until ``MIN_REPS`` are
    done, then while one more of average length still ends within
    ``seconds`` of ``start``."""
    if done < MIN_REPS:
        return True
    return (time.monotonic() - start + statistics.mean(walls)) <= seconds


def run_batch(workload: str, args, work: Path) -> dict:
    """Suites in fresh interpreters until time is up."""
    order = all_keys()
    random.Random(args.seed).shuffle(order)
    fixture = fixture_dir(work) if workload in (WARM, RULES) else None
    reps = []
    failures = []
    walls = []
    start = time.monotonic()
    while more_reps(len(walls), start, walls, args.seconds):
        index = len(walls)
        rep_dir = work / f"rep{index}"
        # Every other suite (of each kind, with --trace 1) compiles in the
        # reverse order, so a run times each pair of compiles both ways
        # round and a seed whose order puts one heavy compile after another
        # does not set the run's figures alone.
        backwards = (index // (2 if args.trace else 1)) % 2
        cfg = {
            "name": f"rep{index}", "mode": "suite", "workload": workload,
            "order": order[::-1] if backwards else order, "seed": args.seed,
            "trace": bool(args.trace and index % 2),
            # The first suite checks every compile against the IR
            # interpreter; later ones the compiles whose listings changed.
            "full_check": not reps,
            "store": None, "rules": None,
            "spans": str(work / f"spans-rep{index}.json"),
        }
        if workload == RULES:
            cfg["rules"] = str(rep_dir / "rules")
            shutil.copytree(fixture / "rules", cfg["rules"])
        else:
            cfg["store"] = str(rep_dir / "store")
            if workload == WARM:
                shutil.copytree(fixture / "store", cfg["store"])
            else:
                os.makedirs(cfg["store"])
        t_rep = time.monotonic()
        try:
            rep = spawn_worker(cfg, work)
        except BenchError as exc:
            failures.append(str(exc))
            if remaining_s() < 30:
                break
            continue
        finally:
            walls.append(time.monotonic() - t_rep)
            shutil.rmtree(rep_dir, ignore_errors=True)
        rep["traced"] = cfg["trace"]
        reps.append(rep)
    if not any(not r["traced"] for r in reps) or (
            args.trace and not any(r["traced"] for r in reps)):
        raise BenchError("; ".join(failures) or "run budget exhausted")
    setups = []
    for index in range(0 if args.trace else SETUP_SAMPLES - len(reps)):
        cfg = {"name": f"setup{index}", "mode": "setup", "rules": None}
        if workload == RULES:
            cfg["rules"] = str(work / f"setup{index}" / "rules")
            shutil.copytree(fixture / "rules", cfg["rules"])
        setups.append(spawn_worker(cfg, work))
    return {"reps": reps, "setups": setups, "worker_failures": failures,
            "order": order}


def batch_result(workload: str, raw: dict, trace: bool) -> dict:
    reps = raw["reps"]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = failed = changed = 0
    for rep in reps:
        for row in rep["compiles"]:
            attempted += 1
            bad = (row["error"] is not None or row.get("degraded")
                   or row.get("mismatches", 0) > 0)
            failed += bool(bad)
            changed += bool(row.get("listing_changed", True))
    # A worker that died took its whole suite with it.
    lost = len(raw["worker_failures"]) * len(raw["order"])
    attempted += lost
    failed += lost

    for rep in reps:
        rows = rep["compiles"]
        scaled = speed.scale_between([row["seconds"] for row in rows],
                                     rep["probe_s"])
        for row, seconds in zip(rows, scaled):
            row["scaled_s"] = seconds

    def wall_s(rep):
        return sum(row["seconds"] for row in rep["compiles"])

    def scale(rep):
        return speed.factor(rep["probe_s"])

    def suite_s(rep):
        return sum(row["scaled_s"] for row in rep["compiles"])

    def setup_s(rep):
        # scaled by the probes just after the set-up
        return speed.factor(rep["probe_s"][:speed.WINDOW]) * rep["setup_s"]

    setups = plain + raw["setups"]

    def cycles(rep, target):
        return sum(row.get("cycles", 0) for row in rep["compiles"]
                   if row["key"].startswith(target + "/"))

    latencies = [row["scaled_s"] for rep in plain for row in rep["compiles"]]
    suites = [suite_s(r) for r in plain]
    n = len(raw["order"])
    problems = []
    for rep in reps:
        if rep["isolation_problems"]:
            problems.append("process memos populated at start: "
                            + ", ".join(rep["isolation_problems"]))
        if rep["mutation_caught"] is False:
            problems.append("check missed a mutated program")
        if rep.get("missing_layers"):
            problems.append("layers with no calls: "
                            + ", ".join(rep["missing_layers"]))
    out = {
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "selection_changes": changed,
        "problems": sorted(set(problems)),
        "oracle_queries": [sum(row.get("queries", 0) for row in r["compiles"])
                           for r in reps],
        "samples": {"suites": len(plain), "compiles": len(latencies),
                    "setups": len(setups)},
        "unscaled": {
            "speed_factor": statistics.median(scale(r) for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "suite_s": statistics.median(wall_s(r) for r in plain),
        },
        "raw": [{"traced": r["traced"], "setup_s": r["setup_s"],
                 "rss_mb": r["rss_mb"], "wall_s": wall_s(r),
                 "speed_factor": scale(r), "suite_s": suite_s(r),
                 "probe_s": r["probe_s"],
                 "compile_s": {row["key"]: row["seconds"]
                               for row in r["compiles"]}}
                for r in reps],
        "setups": [{"setup_s": r["setup_s"], "probe_s": r["probe_s"]}
                   for r in raw["setups"]],
    }
    if not trace:
        out["metrics"] = {
            "setup_s": statistics.median(setup_s(r) for r in setups),
            "suite_s": statistics.median(suites),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "cycles_hvx": statistics.median(cycles(r, "hvx") for r in plain),
            "cycles_neon": statistics.median(cycles(r, "neon")
                                             for r in plain),
            "ops_ok_frac": 1.0 - failed / attempted,
            "listings_pinned_frac": 1.0 - changed / attempted,
            "latency_p50_ms": 1000.0 * quantile(latencies, 0.50),
            "latency_p95_ms": 1000.0 * quantile(latencies, 0.95),
            "throughput_rps": n / statistics.median(suites),
        }
        return out
    per_rep = []
    for rep in traced:
        rows = rep["compiles"]
        totals = {key: sum(row.get(key, 0) for row in rows)
                  for key in ("queries", "cache_hits", "cache_misses",
                              "counterexamples", "batched_evals",
                              "fallback_evals", "fallbacks")}
        totals["store_bytes"] = rep.get("store_bytes", 0)
        stage_q: dict = {}
        for row in rows:
            for stage, q in row.get("stage_queries", {}).items():
                stage_q[stage] = stage_q.get(stage, 0) + q
        totals["stage_queries"] = stage_q
        per_rep.append(layers.batch_metrics(rep["layers"], totals))
    metrics = {name: statistics.median(m[name] for m in per_rep)
               for name in per_rep[0]}
    for name in layers.PREDICTIONS:
        if name.startswith("service."):
            metrics[name] = 0
    metrics["trace.overhead_frac"] = (
        statistics.median(suite_s(r) for r in traced)
        / statistics.median(suites) - 1.0)
    out["metrics"] = metrics
    return out


# -- the service workload ----------------------------------------------------


class Server:
    """``repro serve`` in its own process, on an ephemeral port."""

    def __init__(self, work: Path, index: int, store: Path):
        self.port_file = work / f"server-{index}.port"
        t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(self.port_file), "--quiet",
             "--cache-dir", str(store)],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            while True:
                if self.proc.poll() is not None:
                    raise BenchError(
                        f"server exited {self.proc.returncode} at start")
                # The CLI probes the file's writability by creating and
                # removing it before the server writes it.
                try:
                    text = self.port_file.read_text()
                except FileNotFoundError:
                    text = ""
                if text.endswith("\n"):
                    break
                if time.monotonic() - t_spawn > 60:
                    raise BenchError("server did not start within 60 s")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        #: spawn to listening, the service's set-up time
        self.setup_s = time.monotonic() - t_spawn
        host, port = text.split()
        self.url = f"http://{host}:{port}"

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text(
        ).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("server peak RSS unavailable")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def service_pass(url: str, keys: list, timeout: float,
                 clients: int = CLIENTS) -> list:
    """One closed-loop pass: ``clients`` threads take the next key until
    all are done.  Returns one record per request."""
    from repro.service import client as service_client
    from repro.service.protocol import CompileRequest

    class PollCountingClient(service_client.ServiceClient):
        """The service's client, counting the status polls of ``wait``."""

        polls = 0

        def status(self, job_id):
            self.polls += 1
            return super().status(job_id)

    def sleep_s(polls: int) -> float:
        """What ``ServiceClient.wait`` sleeps between ``polls`` polls."""
        total, delay = 0.0, service_client.POLL_INITIAL_S
        for _ in range(polls - 1):
            total += delay
            delay = min(service_client.POLL_MAX_S,
                        delay * service_client.POLL_BACKOFF)
        return total

    lock = threading.Lock()
    cursor = iter(range(len(keys)))
    records = []

    def client_loop():
        client = PollCountingClient(url, timeout=timeout)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            target, name = keys[index].split("/")
            start = time.perf_counter()
            polls = client.polls
            record = {"key": keys[index], "error": None}
            try:
                view = client.compile(
                    CompileRequest(workload=name, target=target),
                    timeout=timeout)
                record.update(
                    state=view.state, job=view.id, wait_s=view.wait_s,
                    run_s=view.run_s, degraded=view.degraded,
                    result=view.result)
            except Exception as exc:  # noqa: BLE001 - a failed request
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["latency_s"] = time.perf_counter() - start
            record["sleep_s"] = sleep_s(client.polls - polls)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def scale_pass(records: list, wall_s: float, factor: float) -> dict:
    """One pass with its times scaled to the reference machine speed.

    A request's latency is the client's poll sleeps, which are the same
    on any machine, plus work on this machine: the client's and the
    server's HTTP handling, the queue wait and the compile.  The work is
    scaled by the speed ``factor`` measured around the pass, the sleeps
    are not; the pass time is scaled by the share its latencies were.
    """
    for rec in records:
        work = rec["latency_s"] - rec["sleep_s"]
        rec["scaled_s"] = rec["sleep_s"] + factor * work
    raw = sum(rec["latency_s"] for rec in records)
    scaled = sum(rec["scaled_s"] for rec in records)
    return {"wall_s": wall_s, "scaled_s": wall_s * scaled / raw,
            "speed_factor": factor, "records": records}


def run_service(args, work: Path) -> dict:
    keys = all_keys()
    rng = random.Random(args.seed)
    reference = check.load_reference()
    # The server reloads a store that holds every verdict, as a restarted
    # server with --cache-dir does; its warm-up then replays verdicts
    # instead of synthesizing, so its memory does not carry the cold
    # synthesis' garbage (cold_suite measures that).
    store = work / "store"
    shutil.copytree(fixture_dir(work) / "store", store)
    # Machine speed samples (``speed.py``), taken while the server idles:
    # before each server start and before and after each pass.
    probes = []

    def sample() -> list:
        got = [speed.probe() for _ in range(PROBES_PER_SAMPLE)]
        probes.extend(got)
        return got

    setups = []
    for index in range(SERVER_STARTS - 1):
        sample()
        starter = Server(work, index, store)
        setups.append(starter.setup_s)
        starter.stop()
    sample()
    server = Server(work, SERVER_STARTS - 1, store)
    setups.append(server.setup_s)
    passes = []
    recorder = layers.Recorder()
    try:
        # One warm-up compile per key, one at a time and in a fixed order.
        warmup = service_pass(server.url, keys, timeout=60, clients=1)
        if any(rec["error"] for rec in warmup):
            raise BenchError("warm-up compile failed")
        start = time.monotonic()
        while more_reps(len(passes), start,
                        [p["wall_s"] for p in passes], args.seconds):
            if remaining_s() < 15:
                break
            traced = bool(args.trace and len(passes) % 2)
            if traced:
                recorder.install()
            before = sample()
            t_pass = time.perf_counter()
            try:
                records = service_pass(
                    server.url, rng.sample(keys, len(keys)), timeout=60)
            finally:
                recorder.uninstall()
            wall_s = time.perf_counter() - t_pass
            passes.append(scale_pass(records, wall_s,
                                     speed.factor(before + sample())))
            passes[-1]["traced"] = traced
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    attempted = failed = changed = 0
    for p in passes:
        for rec in p["records"]:
            attempted += 1
            result = rec.get("result")
            ok = (rec["error"] is None and rec.get("state") == "done"
                  and not rec.get("degraded") and result is not None)
            failed += not ok
            listing = ([check.listing_entry(e["stage"], e["selector"],
                                            e["listing"])
                        for e in result.programs] if result else None)
            changed += listing != reference.get(rec["key"])
            rec["cycles"] = result.total_cycles if result else 0
            rec["target"] = rec["key"].split("/")[0]
            rec.pop("result", None)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    latencies = [r["scaled_s"] for p in plain for r in p["records"]]
    raw_latencies = [r["latency_s"] for p in plain for r in p["records"]]
    out = {
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "selection_changes": changed,
        "problems": [],
        "oracle_queries": [],
        "samples": {"passes": len(plain), "requests": len(latencies)},
        "unscaled": {
            "speed_factor": speed.factor(probes),
            "setup_s": statistics.median(setups),
            "suite_s": statistics.median(p["wall_s"] for p in plain),
            "latency_p95_ms": 1000.0 * quantile(raw_latencies, 0.95),
        },
        "raw": {"setup_s": setups, "probe_s": probes,
                "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                            "speed_factor": p["speed_factor"],
                            "latency_s": [r["latency_s"]
                                          for r in p["records"]]}
                           for p in passes]},
    }
    if not args.trace:
        out["metrics"] = {
            "setup_s": speed.factor(probes) * statistics.median(setups),
            "suite_s": statistics.median(p["scaled_s"] for p in plain),
            "peak_rss_mb": rss_mb,
            "cycles_hvx": statistics.median(
                sum(r["cycles"] for r in p["records"] if r["target"] == "hvx")
                for p in plain),
            "cycles_neon": statistics.median(
                sum(r["cycles"] for r in p["records"]
                    if r["target"] == "neon")
                for p in plain),
            "ops_ok_frac": 1.0 - failed / attempted,
            "listings_pinned_frac": 1.0 - changed / attempted,
            "latency_p50_ms": 1000.0 * quantile(latencies, 0.50),
            "latency_p95_ms": 1000.0 * quantile(latencies, 0.95),
            "throughput_rps": len(latencies) / sum(p["scaled_s"]
                                                   for p in plain),
        }
        return out
    metrics = {name: 0 for name in layers.PREDICTIONS}
    records = [r for p in traced for r in p["records"] if r["error"] is None]
    summary = recorder.summary()
    submit = summary.get("service.submit", {"calls": 0, "total_s": 0.0})
    status = summary.get("service.status", {"calls": 0})
    metrics.update({
        "service.submit_ms": 1000.0 * submit["total_s"]
        / max(1, submit["calls"]),
        "service.queue_wait_ms": 1000.0 * statistics.median(
            r["wait_s"] or 0.0 for r in records),
        "service.run_ms": 1000.0 * statistics.median(
            r["run_s"] or 0.0 for r in records),
        "service.delivery_ms": 1000.0 * statistics.median(
            r["latency_s"] - (r["wait_s"] or 0.0) - (r["run_s"] or 0.0)
            for r in records),
        "service.polls_per_request": status["calls"] / max(1, len(records)),
        "service.coalesced_frac": 1.0 - len({r["job"] for r in records})
        / max(1, len(records)),
        "trace.overhead_frac": (
            statistics.median(p["scaled_s"] for p in traced)
            / statistics.median(p["scaled_s"] for p in plain) - 1.0),
    })
    missing = layers.missing_layers(SERVICE, summary)
    if missing:
        out["problems"].append("layers with no calls: " + ", ".join(missing))
    out["metrics"] = metrics
    return out


# -- stamps, output ----------------------------------------------------------


def stamps() -> dict:
    """Machine and program identity recorded with every result."""
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rev": rev,
        "src_sha256": src_digest(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, args) -> dict:
    _deadline[0] = time.monotonic() + RUN_BUDGET_S
    work = WORK / f"{workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if workload == SERVICE:
            result = run_service(args, work)
        else:
            result = batch_result(workload, run_batch(workload, args, work),
                                  bool(args.trace))
    finally:
        kept = WORK / "traces" / f"{workload}-seed{args.seed}"
        for spans in work.glob("spans-rep*.json"):
            kept.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), kept / spans.name)
        shutil.rmtree(work, ignore_errors=True)
    result["workload"] = workload
    result["seed"] = args.seed
    result["trace"] = bool(args.trace)
    return result


def report(result: dict, units: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {int(result['trace'])} samples {result['samples']}")
    for name, value in result["metrics"].items():
        print(f"  {name:<28} {value:>14.6g} {units.get(name, '')}")
    print(f"  {'fail_rate':<28} {result['fail_rate']:>14.6g} fraction "
          f"({result['failed']}/{result['attempted']} ops)")
    print(f"  {'selection_changes':<28} {result['selection_changes']:>14d} "
          f"count")
    if result.get("unscaled"):
        plain = dict(result["unscaled"])
        factor = plain.pop("speed_factor")
        print(f"  machine speed factor {factor:.4g}; unscaled: "
              + ", ".join(f"{name} {value:.6g} {units.get(name, '')}"
                          for name, value in plain.items()))
    if result["oracle_queries"]:
        print(f"  oracle.queries per suite {result['oracle_queries']} "
              f"(not claimable: counts drift with the process hash seed)")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def save(result: dict, stamp: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = (f"{result['workload']}-seed{result['seed']}"
            f"-trace{int(result['trace'])}.json")
    (out / name).write_text(json.dumps({**result, "stamps": stamp},
                                       indent=1))


def pin() -> int:
    """Compile the 42 once and rewrite the pinned reference listings."""
    work = WORK / f"pin-{os.getpid()}"
    (work / "store").mkdir(parents=True)
    try:
        rep = spawn_worker({
            "name": "pin", "mode": "suite", "workload": COLD,
            "order": all_keys(), "seed": 0, "trace": False,
            "store": str(work / "store"), "rules": None,
        }, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = [row["key"] for row in rep["compiles"]
           if row["error"] or row["degraded"] or row["mismatches"]]
    if bad:
        print(f"not pinning: failed compiles {bad}", file=sys.stderr)
        return 1
    listings = {row["key"]: row["listing"] for row in rep["compiles"]}
    check.REFERENCE.write_text(json.dumps(listings, indent=1, sort_keys=True)
                               + "\n")
    print(f"pinned {len(listings)} listings to {check.REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite reference_listings.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"perfbench: no program to benchmark at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    units = declared_units(bool(args.trace))
    stamp = stamps()
    print("stamps " + json.dumps(stamp, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in names:
        try:
            result = run_workload(workload, args)
        except BenchError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        differ = sorted(set(result["metrics"]) ^ set(units))
        if differ:
            print(f"perfbench: {workload}: metrics differ from "
                  f"BENCHMARK.json: {differ}", file=sys.stderr)
            return 1
        save(result, stamp)
        report(result, units)
        results.append(result)
    if len(results) == 1:
        result = results[0]
        print(json.dumps({
            "correct": result["failed"] == 0 and not result["problems"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in result["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
