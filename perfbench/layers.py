"""Per-layer tracing from the benchmark's own files.

The compiler is not instrumented for this benchmark.  Instead, a traced
run replaces each layer's public functions with thin wrappers that record
one span per call: name, start, end, parent span and compile id.  Spans
are held in memory and written to disk when the run ends.  A layer's
self time is its spans' duration minus the time covered by child spans.

Wrappers are installed on the name each caller actually looks up: the
pipeline calls ``repro.pipeline.lower_pipeline`` (its own import of the
frontend function), the lowering stage calls
``repro.synthesis.lowering.synthesize_swizzles``, and the oracle looks up
``repro.synthesis.valuation.environment_bank`` through the module at call
time.  Methods are wrapped on their class.  Patching any other binding
would record nothing.

``WRAPPED`` is the single table of wrapped names.  For each one it lists
the workloads that must record at least one call: a traced run fails its
coverage guard when such a name records zero calls, so a rename in the
program cannot silently drop a row.  ``PREDICTIONS`` records, for every
per-layer metric, which end-to-end metric and workload it should move and
where it should not move; BENCHMARK.json lists the same metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

COLD, WARM, RULES, SERVICE = ("cold_suite", "warm_replay", "rules_replay",
                              "service_warm")
BATCH = (COLD, WARM, RULES)

#: (span name, module, attribute path, workloads that must call it)
WRAPPED = (
    ("frontend.lower_pipeline", "repro.pipeline", "lower_pipeline", BATCH),
    ("valuation.environment_bank", "repro.synthesis.valuation",
     "environment_bank", (COLD, RULES)),
    ("valuation.environment_zero", "repro.synthesis.valuation",
     "environment_zero", (COLD,)),
    ("valuation.bank_arrays", "repro.synthesis.valuation", "bank_arrays",
     (COLD, RULES)),
    ("eval.plan_for", "repro.eval.plan", "BatchedEvaluator.plan_for",
     (COLD, RULES)),
    ("eval.denote_bank", "repro.eval.plan", "BatchedEvaluator.denote_bank",
     (COLD, RULES)),
    ("fingerprints.resolve", "repro.synthesis.fingerprints",
     "Fingerprinter.resolve", (COLD,)),
    ("fingerprints.learn", "repro.synthesis.fingerprints",
     "Fingerprinter.learn", (COLD,)),
    ("oracle.equivalent", "repro.synthesis.oracle", "Oracle.equivalent",
     BATCH),
    ("oracle.equivalent_lane0", "repro.synthesis.oracle",
     "Oracle.equivalent_lane0", (COLD, WARM)),
    ("oracle.query_key", "repro.synthesis.oracle", "Oracle.query_key",
     BATCH),
    ("engine.cache_lookup", "repro.synthesis.engine", "OracleCache.lookup",
     BATCH),
    ("engine.cache_record", "repro.synthesis.engine", "OracleCache.record",
     (COLD,)),
    ("engine.store_load", "repro.synthesis.engine", "DiskStore.__init__",
     (COLD, WARM)),
    ("engine.store_flush", "repro.synthesis.engine", "DiskStore.flush",
     (COLD, WARM)),
    # Only reached with jobs > 1; the workloads use the default jobs=1.
    ("engine.check_batch", "repro.synthesis.engine",
     "ParallelChecker.check_batch", ()),
    ("engine.first_equivalent", "repro.synthesis.engine",
     "ParallelChecker.first_equivalent", (COLD, WARM)),
    ("lifting.lift", "repro.synthesis.lifting", "Lifter.lift", (COLD, WARM)),
    ("sketch.lower", "repro.synthesis.lowering", "Lowerer.lower",
     (COLD, WARM)),
    ("swizzle.synthesize", "repro.synthesis.lowering",
     "synthesize_swizzles", (COLD, WARM)),
    ("rules.load", "repro.rules.library", "RuleLibrary.__init__", (RULES,)),
    ("rules.match", "repro.rules.library", "RuleLibrary.match", (RULES,)),
    ("pipeline.compile", "repro.pipeline", "compile_pipeline", BATCH),
    ("sim.measure", "repro.sim", "measure", BATCH),
    ("service.submit", "repro.service.client", "ServiceClient.submit",
     (SERVICE,)),
    ("service.status", "repro.service.client", "ServiceClient.status",
     (SERVICE,)),
)

#: spans whose return value says whether the layer's shortcut applied
HIT_WHEN_NOT_NONE = frozenset({"fingerprints.resolve", "rules.match"})

#: metric -> (the end-to-end metrics and workloads it should move, the
#: workloads where it should not move).  The service workload's server
#: compiles on the warm path (an in-memory cache that holds every verdict),
#: so layers on that path reach service_warm through ``service.run_ms``,
#: a small share of its latency.  service_warm is run by hand (see
#: ``run.py``); the ``service.*`` metrics read 0 on the batch workloads.
#: Mirrors BENCHMARK.json's ``per_layer``.
_WARM_PATH = "suite_s on warm_replay; latency on service_warm (small)"
_ENUMERATION = ("suite_s on cold_suite (a Table 1 row) and on warm_replay, "
                "where enumeration replays cached verdicts")
_SERVICE = ("latency_p50_ms, latency_p95_ms and throughput_rps on "
            "service_warm")
PREDICTIONS = {
    "frontend.self_s": ("suite_s on every batch workload (small share); "
                        "latency on service_warm (small)", "-"),
    "valuation.bank_calls": ("suite_s and peak_rss_mb on cold_suite and "
                             "rules_replay",
                             "warm_replay, service_warm (0 calls)"),
    "valuation.bank_self_s": ("suite_s and peak_rss_mb on cold_suite and "
                              "rules_replay", "warm_replay, service_warm"),
    "valuation.env0_self_s": ("suite_s on cold_suite",
                              "warm_replay, service_warm"),
    "valuation.arrays_self_s": ("suite_s and peak_rss_mb on cold_suite and "
                                "rules_replay", "warm_replay, service_warm"),
    "eval.plan_calls": ("suite_s on cold_suite and rules_replay",
                        "warm_replay, service_warm"),
    "eval.plan_self_s": ("suite_s on cold_suite and rules_replay",
                         "warm_replay, service_warm"),
    "eval.denote_calls": ("suite_s on cold_suite and rules_replay",
                          "warm_replay, service_warm"),
    "eval.denote_self_s": ("suite_s on cold_suite and rules_replay",
                           "warm_replay, service_warm"),
    "eval.batched_ratio": ("suite_s on cold_suite and rules_replay",
                           "warm_replay, service_warm"),
    "fingerprints.resolve_calls": ("suite_s on cold_suite (and the rule "
                                   "misses of rules_replay)",
                                   "warm_replay, service_warm (cache "
                                   "first)"),
    "fingerprints.self_s": ("suite_s on cold_suite (and the rule misses of "
                            "rules_replay)", "warm_replay, service_warm"),
    "fingerprints.hit_ratio": ("suite_s on cold_suite",
                               "warm_replay, service_warm"),
    "oracle.full_calls": ("suite_s on cold_suite", "-"),
    "oracle.full_self_s": ("suite_s on cold_suite; " + _WARM_PATH, "-"),
    "oracle.lane0_calls": ("suite_s on cold_suite", "rules_replay"),
    "oracle.lane0_self_s": ("suite_s on cold_suite", "rules_replay"),
    "oracle.key_self_s": ("suite_s on warm_replay mostly, cold_suite; "
                          "latency on service_warm (small)", "-"),
    "oracle.queries": ("a count, not claimable: cold counts drift with the "
                       "process hash seed", "-"),
    "oracle.cache_hit_ratio": ("suite_s on warm_replay (stays 1.0) and "
                               "cold_suite", "-"),
    "oracle.counterexamples": ("suite_s on cold_suite", "warm_replay"),
    "engine.store_load_calls": ("suite_s on warm_replay (reads) and "
                                "cold_suite (reloads)",
                                "rules_replay, service_warm (no store)"),
    "engine.store_load_s": ("suite_s on warm_replay and cold_suite",
                            "rules_replay, service_warm"),
    "engine.store_bytes": ("suite_s on warm_replay",
                           "rules_replay, service_warm"),
    "engine.store_flush_s": ("suite_s on cold_suite (writes)",
                             "warm_replay, rules_replay, service_warm"),
    "engine.lookup_calls": (_WARM_PATH + "; cold_suite", "-"),
    "engine.cache_self_s": (_WARM_PATH + "; cold_suite", "-"),
    "engine.checker_self_s": (_ENUMERATION, "rules_replay"),
    "lifting.self_s": (_ENUMERATION, "rules_replay (rule hits skip it)"),
    "lifting.queries": (_ENUMERATION, "rules_replay"),
    "sketch.self_s": (_ENUMERATION, "rules_replay"),
    "sketch.queries": (_ENUMERATION, "rules_replay"),
    "swizzle.calls": (_ENUMERATION, "rules_replay"),
    "swizzle.self_s": (_ENUMERATION, "rules_replay"),
    "swizzle.queries": (_ENUMERATION, "rules_replay"),
    "rules.load_s": ("setup_s on rules_replay only",
                     "cold_suite, warm_replay, service_warm"),
    "rules.match_calls": ("suite_s on rules_replay only",
                          "cold_suite, warm_replay, service_warm"),
    "rules.match_self_s": ("suite_s on rules_replay only",
                           "cold_suite, warm_replay, service_warm"),
    "rules.hit_ratio": ("suite_s on rules_replay only",
                        "cold_suite, warm_replay, service_warm"),
    "pipeline.self_s": ("suite_s on every batch workload", "-"),
    "pipeline.fallbacks": ("cycles_hvx and cycles_neon on every workload",
                           "-"),
    "sim.self_s": ("latency on service_warm (the server simulates inside "
                   "each job)", "suite_s on batch workloads (the "
                                "benchmark simulates outside the timed "
                                "compiles)"),
    "service.submit_ms": (_SERVICE, "every batch workload"),
    "service.queue_wait_ms": (_SERVICE, "every batch workload"),
    "service.run_ms": (_SERVICE, "every batch workload"),
    "service.delivery_ms": (_SERVICE + " (the client's 50 ms first poll "
                            "sleep lives here)", "every batch workload"),
    "service.polls_per_request": (_SERVICE, "every batch workload"),
    "service.coalesced_frac": ("throughput_rps on service_warm",
                               "every batch workload"),
    "trace.overhead_frac": ("none: the cost of the benchmark's wrappers",
                            "-"),
}

class Recorder:
    """Collects spans from every wrapped call, per thread."""

    def __init__(self):
        #: (id, name, start, end, parent id or -1, compile id, hit)
        self.spans: list = []
        self.compile_id = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list = []

    def _wrap(self, name: str, fn):
        recorder, spans, ids, local = self, self.spans, self._ids, self._local
        track_hit = name in HIT_WHEN_NOT_NONE
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent,
                              recorder.compile_id,
                              (result is not None) if track_hit else None))

        return wrapper

    def install(self) -> None:
        """Wrap every name in ``WRAPPED``; ``uninstall`` undoes it."""
        for name, module_name, path, _expected in WRAPPED:
            owner = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            setattr(owner, attr, self._wrap(name, original))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and hits."""
        child = defaultdict(float)
        for _id, _name, start, end, parent, _cid, _hit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                   "self_s": 0.0, "hits": 0})
        for span_id, name, start, end, _parent, _cid, hit in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child[span_id]
            row["hits"] += bool(hit)
        return dict(out)

    def dump(self) -> dict:
        """The spans as a JSON-ready table."""
        return {
            "fields": ["id", "name", "start", "end", "parent", "compile",
                       "hit"],
            "spans": [list(s) for s in self.spans],
        }


def missing_layers(workload: str, summary: dict) -> list:
    """Wrapped names expected on ``workload`` that recorded no call."""
    return [name for name, _mod, _path, expected in WRAPPED
            if workload in expected
            and summary.get(name, {}).get("calls", 0) == 0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def batch_metrics(summary: dict, totals: dict) -> dict:
    """Per-layer metrics of one traced batch suite.

    ``summary`` is :meth:`Recorder.summary`; ``totals`` sums the compiles'
    ``SynthesisStats`` counters and the benchmark's own per-suite facts.
    """
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    def hits(name):
        return summary.get(name, {}).get("hits", 0)

    evals = totals["batched_evals"] + totals["fallback_evals"]
    lookups = totals["cache_hits"] + totals["cache_misses"]
    return {
        "frontend.self_s": self_s("frontend.lower_pipeline"),
        "valuation.bank_calls": calls("valuation.environment_bank"),
        "valuation.bank_self_s": self_s("valuation.environment_bank"),
        "valuation.env0_self_s": self_s("valuation.environment_zero"),
        "valuation.arrays_self_s": self_s("valuation.bank_arrays"),
        "eval.plan_calls": calls("eval.plan_for"),
        "eval.plan_self_s": self_s("eval.plan_for"),
        "eval.denote_calls": calls("eval.denote_bank"),
        "eval.denote_self_s": self_s("eval.denote_bank"),
        "eval.batched_ratio": _ratio(totals["batched_evals"], evals),
        "fingerprints.resolve_calls": calls("fingerprints.resolve"),
        "fingerprints.self_s": self_s("fingerprints.resolve",
                                      "fingerprints.learn"),
        "fingerprints.hit_ratio": _ratio(hits("fingerprints.resolve"),
                                         calls("fingerprints.resolve")),
        "oracle.full_calls": calls("oracle.equivalent"),
        "oracle.full_self_s": self_s("oracle.equivalent"),
        "oracle.lane0_calls": calls("oracle.equivalent_lane0"),
        "oracle.lane0_self_s": self_s("oracle.equivalent_lane0"),
        "oracle.key_self_s": self_s("oracle.query_key"),
        "oracle.queries": totals["queries"],
        "oracle.cache_hit_ratio": _ratio(totals["cache_hits"], lookups),
        "oracle.counterexamples": totals["counterexamples"],
        "engine.store_load_calls": calls("engine.store_load"),
        "engine.store_load_s": summary.get("engine.store_load", {}).get(
            "total_s", 0.0),
        "engine.store_bytes": totals["store_bytes"],
        "engine.store_flush_s": summary.get("engine.store_flush", {}).get(
            "total_s", 0.0),
        "engine.lookup_calls": calls("engine.cache_lookup"),
        "engine.cache_self_s": self_s("engine.cache_lookup",
                                      "engine.cache_record"),
        "engine.checker_self_s": self_s("engine.check_batch",
                                        "engine.first_equivalent"),
        "lifting.self_s": self_s("lifting.lift"),
        "lifting.queries": totals["stage_queries"].get("lifting", 0),
        "sketch.self_s": self_s("sketch.lower"),
        "sketch.queries": totals["stage_queries"].get("sketching", 0),
        "swizzle.calls": calls("swizzle.synthesize"),
        "swizzle.self_s": self_s("swizzle.synthesize"),
        "swizzle.queries": totals["stage_queries"].get("swizzling", 0),
        "rules.load_s": summary.get("rules.load", {}).get("total_s", 0.0),
        "rules.match_calls": calls("rules.match"),
        "rules.match_self_s": self_s("rules.match"),
        "rules.hit_ratio": _ratio(hits("rules.match"), calls("rules.match")),
        "pipeline.self_s": self_s("pipeline.compile"),
        "pipeline.fallbacks": totals["fallbacks"],
        "sim.self_s": self_s("sim.measure"),
    }
