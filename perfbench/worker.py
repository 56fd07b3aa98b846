"""One batch-workload process: a fixture build, one measured suite, or
one more set-up sample.

Each measured suite runs in a fresh interpreter started by ``run.py``.
Process-wide memos in the compiler (the valuation environment cache, the
swizzle and sketch realization memos, the pruned-grammar tables) would
otherwise carry work from one suite into the next, so a second cold suite
in the same process would be a warmer, different program.  The guard in
:func:`isolation_problems` fails the run if any memo is already populated
when the process starts.

Usage (``run.py`` writes the JSON config)::

    python3 perfbench/worker.py CONFIG.json
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

TARGETS = ("hvx", "neon")


def process_memos() -> dict:
    """Sizes of the compiler's process-wide memos."""
    from repro.synthesis import sketch, swizzle_synth, valuation
    from repro.targets import pruning

    return {
        "valuation._ENV_CACHE": len(valuation._ENV_CACHE),
        "swizzle_synth._REALIZATION_CACHE":
            len(swizzle_synth._REALIZATION_CACHE),
        "sketch._REALIZATION_MEMO": len(sketch._REALIZATION_MEMO),
        "pruning._TABLES": len(pruning._TABLES),
    }


def isolation_problems() -> list:
    """Memos that are already populated; empty in a fresh interpreter."""
    return [name for name, size in process_memos().items() if size]


def build_fixture(cfg: dict) -> dict:
    """Fill a verdict store with the 42 compiles, then mine rule
    libraries for both targets against a copy of it, so the store holds
    exactly the compiles' verdicts.  Not timed."""
    import shutil

    import repro.workloads
    from repro.pipeline import compile_pipeline
    from repro.rules import mine_rules

    for key in cfg["order"]:
        target, name = key.split("/")
        compile_pipeline(repro.workloads.get(name).build(), target=target,
                         cache_dir=cfg["store"])
    mining_store = Path(cfg["rules"]) / "store"
    shutil.copytree(cfg["store"], mining_store)
    mine_rules(targets=TARGETS, cache_dir=str(mining_store),
               rules_dir=cfg["rules"])
    shutil.rmtree(mining_store)
    return {}


def _stats_row(stats) -> dict:
    return {
        "queries": stats.total_queries,
        "cache_hits": stats.total_cache_hits,
        "cache_misses": stats.total_cache_misses,
        "counterexamples": stats.total_counterexamples,
        "batched_evals": stats.total_batched_evals,
        "fallback_evals": stats.total_fallback_evals,
        "rule_hits": stats.rule_hits,
        "stage_queries": {name: s.queries
                          for name, s in stats.stages.items()},
    }


def set_up(cfg: dict):
    """What ``setup_s`` times after the interpreter starts: target and
    grammar tables and, with ``cfg["rules"]``, the rule libraries.
    Returns the targets and the libraries."""
    from repro.targets import get_target, pruning

    targets = {name: get_target(name) for name in TARGETS}
    for name in TARGETS:
        pruning.load_table(name)
    libraries = {}
    if cfg.get("rules"):
        from repro.rules import RuleLibrary, rules_file

        libraries = {name: RuleLibrary(rules_file(cfg["rules"], name),
                                       target=name)
                     for name in TARGETS}
    return targets, libraries


def run_setup(cfg: dict) -> dict:
    """A suite's imports and set-up and nothing else: one more
    ``setup_s`` sample, with the speed probes that scale it."""
    import repro.pipeline  # noqa: F401 - imported as a suite imports it
    import repro.sim  # noqa: F401
    import repro.workloads  # noqa: F401

    set_up(cfg)
    t_ready = time.monotonic()
    import speed

    return {"t_start": T_START, "t_ready": t_ready,
            "probe_s": [speed.probe() for _ in range(speed.WINDOW)]}


def run_suite(cfg: dict) -> dict:
    """Setup, then the 42 timed compiles, then the untimed checks.

    With ``full_check`` false, only the compiles whose listings differ
    from the pinned ones are evaluated against the IR interpreter, and
    the mutation check is skipped.
    """
    import repro.pipeline as pipeline
    import repro.sim as sim
    import repro.workloads

    import check
    import layers

    isolation = isolation_problems()
    recorder = None
    if cfg["trace"]:
        recorder = layers.Recorder()
        recorder.install()
    targets, libraries = set_up(cfg)
    t_ready = time.monotonic()

    import speed

    keys = cfg["order"]
    funcs = [repro.workloads.get(key.split("/")[1]).build() for key in keys]
    compiles = []
    compiled_by_key = {}
    # The machine's speed, probed before every compile and after the last
    # one; ``run.py`` scales each compile's time by the probes on either
    # side of it (see ``speed.py``).
    probes = []
    for index, (key, func) in enumerate(zip(keys, funcs)):
        probes.append(speed.probe())
        target = key.split("/")[0]
        if recorder is not None:
            recorder.compile_id = index
        kwargs = {"target": target}
        if libraries:
            kwargs["rules"] = libraries[target]
        else:
            kwargs["cache_dir"] = cfg["store"]
        row = {"key": key, "error": None}
        start = time.perf_counter()
        try:
            compiled = pipeline.compile_pipeline(func, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a failed op, reported
            row["seconds"] = time.perf_counter() - start
            row["error"] = f"{type(exc).__name__}: {exc}"
            compiles.append(row)
            continue
        row["seconds"] = time.perf_counter() - start
        workload = repro.workloads.get(key.split("/")[1])
        row["cycles"] = sim.measure(compiled, workload.width,
                                    workload.height).total
        row["degraded"] = bool(compiled.degraded)
        row["fallbacks"] = compiled.fallbacks
        row.update(_stats_row(compiled.stats))
        compiles.append(row)
        compiled_by_key[key] = compiled
    probes.append(speed.probe())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.uninstall()

    reference = check.load_reference() if check.REFERENCE.exists() else {}
    mutation_caught = None
    for row in compiles:
        compiled = compiled_by_key.get(row["key"])
        if compiled is None:
            continue
        target = targets[row["key"].split("/")[0]]
        listing = check.listing(target, compiled)
        row["listing"] = listing
        row["listing_changed"] = listing != reference.get(row["key"])
        if not cfg.get("full_check", True) and not row["listing_changed"]:
            # The pinned listing passed this check when it was pinned and
            # again in the first suite of this run.
            row["mismatches"] = 0
            continue
        bad = 0
        for cstage in compiled.stages:
            for i, cexpr in enumerate(cstage.exprs):
                seed_text = f"{cfg['seed']}|{row['key']}|{cstage.name}|{i}"
                bad += check.mismatches(target, cexpr.source, cexpr.program,
                                        seed_text)
                if mutation_caught is None:
                    mutant = check.mutate(cexpr.program)
                    if mutant is not None:
                        mutation_caught = check.mismatches(
                            target, cexpr.source, mutant, seed_text) > 0
        row["mismatches"] = bad

    out = {
        "t_start": T_START,
        "t_ready": t_ready,
        "compiles": compiles,
        "rss_mb": rss_mb,
        "probe_s": probes,
        "isolation_problems": isolation,
        "memos_after": process_memos(),
        "mutation_caught": (bool(mutation_caught)
                            if cfg.get("full_check", True) else None),
    }
    if cfg.get("store"):
        store = Path(cfg["store"]) / "oracle.jsonl"
        out["store_bytes"] = store.stat().st_size if store.exists() else 0
    if recorder is not None:
        out["layers"] = recorder.summary()
        out["missing_layers"] = layers.missing_layers(cfg["workload"],
                                                      out["layers"])
        Path(cfg["spans"]).write_text(json.dumps(recorder.dump()))
    return out


def main(argv) -> int:
    cfg = json.loads(Path(argv[1]).read_text())
    modes = {"fixture": build_fixture, "setup": run_setup,
             "suite": run_suite}
    result = modes[cfg["mode"]](cfg)
    Path(cfg["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
