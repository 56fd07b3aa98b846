"""Parallel, memoized execution layer under the synthesis pipeline.

The paper's headline cost is synthesis time: every equivalence query pays
for a full differential-testing pass over the valuation bank.  This module
adds the two scaling levers the related work identifies without changing
any synthesis *result*:

1. **Oracle memoization** — each query is keyed by a canonical structural
   hash of ``(spec, candidate, layout, seed, rounds)`` that is insensitive
   to buffer/scalar renaming but sensitive to layout.  Verdicts live in an
   in-process map and, optionally, an append-only JSONL store on disk, so
   repeated compilations and shared subexpressions across kernels skip
   re-verification entirely.  The CEGIS counterexample bank is persisted as
   bank *indices* (the bank itself is a deterministic function of the spec
   and seed), so refuting inputs survive across runs.

2. **Parallel candidate checking** — candidate batches from lifting and
   swizzle concretization fan out over a ``concurrent.futures`` worker
   pool: process-based by default, degrading to threads and finally to
   serial execution when workers cannot be spawned or crash.  Results are
   reduced by *original candidate order*, so the synthesized program is
   byte-identical to serial mode regardless of ``jobs``.

Verdicts are pure functions of ``(spec, candidate, layout, seed, rounds)``:
counterexample replay only short-circuits work the bank pass would repeat,
so caching and parallel evaluation are both sound.

Caveat on rename-insensitivity: the valuation bank assigns pseudo-random
streams to buffers in name-sorted order, so two expressions equal up to
renaming receive *isomorphic* (not identical) valuations.  A cached verdict
for a renamed twin is exactly as trustworthy as a fresh differential pass.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import json
import os
import re
import threading
import weakref
import zlib
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

from .. import faults
from ..faults import RetryPolicy
from ..hvx import isa as hvx_isa
from ..ir import expr as ir_expr
from ..trace.core import NULL_SPAN as _NULL_CTX
from ..types import ScalarType, VectorType
from ..uber import instructions as uber_instr

#: default on-disk store location (overridden by $REPRO_CACHE_DIR)
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_FILE_NAME = "oracle.jsonl"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-rake``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-rake"


# ---------------------------------------------------------------------------
# Canonical structural hashing
# ---------------------------------------------------------------------------

#: dataclass fields holding buffer/variable names, normalized during hashing
_NAME_FIELDS = frozenset({"buffer", "buffer0", "buffer1", "name"})

_EXPR_BASES = (ir_expr.Expr, uber_instr.UberExpr, hvx_isa.HvxExpr)


def canonical_expr(node, names: dict) -> str:
    """Render any expression kind (IR, uber, HVX, sketch) canonically.

    ``names`` maps buffer/scalar names to positional ids in first-occurrence
    order; passing one map across several expressions keeps their shared
    names consistent (a candidate must read the *same* buffers as its spec).
    """
    parts = [type(node).__name__]
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        parts.append(_canon_value(value, f.name, names))
    return "(" + " ".join(parts) + ")"


def _canon_value(value, field_name: str, names: dict) -> str:
    if isinstance(value, _EXPR_BASES):
        return canonical_expr(value, names)
    if isinstance(value, (ScalarType, VectorType)):
        return value.name
    if isinstance(value, str):
        if field_name in _NAME_FIELDS:
            return names.setdefault(value, f"%{len(names)}")
        return value
    if isinstance(value, (tuple, list)):
        return "[" + " ".join(_canon_value(v, field_name, names)
                              for v in value) + "]"
    return repr(value)


def query_key(
    spec,
    candidate,
    layout: str,
    seed: int = 0,
    rounds: int = 0,
    tag: str = "full",
) -> str:
    """Stable cache key for one equivalence query.

    Insensitive to buffer/scalar renaming (names are positionalized with a
    map shared between spec and candidate), sensitive to layout, oracle
    seed, randomized-round count and query kind (full vs lane-0).
    """
    names: dict = {}
    spec_part = canonical_expr(spec, names)
    cand_part = canonical_expr(candidate, names)
    raw = f"{tag}|{layout}|{seed}|{rounds}|{spec_part}|{cand_part}"
    return hashlib.sha256(raw.encode()).hexdigest()


def canonical_spec(spec) -> str:
    """Rename-insensitive canonical rendering of one spec expression.

    This is the **single** definition of spec identity shared by the
    verdict cache (:func:`spec_key`), the service's request coalescer
    (:mod:`repro.service.coalesce`) and the rewrite-rule library
    (:mod:`repro.rules`) — every layer that answers "have we seen this
    spec before?" must hash the same rendering, or cache keys, coalescing
    keys and rule keys drift apart.
    """
    return canonical_expr(spec, {})


def spec_key(spec, seed: int = 0, rounds: int = 0) -> str:
    """Stable key for a specification's counterexample bank."""
    raw = f"ce|{seed}|{rounds}|{canonical_spec(spec)}"
    return hashlib.sha256(raw.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Persistent verdict / counterexample store
# ---------------------------------------------------------------------------


def encode_record(rec: dict) -> str:
    """One JSONL line for ``rec``, stamped with a CRC-32 of its body.

    The checksum covers the canonical serialization of the record *without*
    the ``crc`` field (compact separators, sorted keys), so any decoder can
    recompute it without caring about field order.
    """
    body = json.dumps(rec, separators=(",", ":"), sort_keys=True)
    stamped = dict(rec)
    stamped["crc"] = zlib.crc32(body.encode())
    return json.dumps(stamped, separators=(",", ":"), sort_keys=True)


def decode_record(line: str):
    """Parse one JSONL line; ``None`` if torn, merged or CRC-mismatched.

    Lines without a ``crc`` field (stores written before checksumming) are
    accepted as-is — the old best-effort trust level, kept so warm caches
    survive the upgrade.
    """
    try:
        rec = json.loads(line)
    except (json.JSONDecodeError, ValueError):
        return None
    if not isinstance(rec, dict):
        return None
    if "crc" in rec:
        crc = rec.pop("crc")
        body = json.dumps(rec, separators=(",", ":"), sort_keys=True)
        if crc != zlib.crc32(body.encode()):
            return None
    return rec


def decode_lines(raw: bytes):
    """:func:`decode_record` for each non-blank line of ``raw``.

    A line that is not valid UTF-8 (disk garbage such as a stray ``\\xff``)
    yields ``None`` like any other corrupt line, instead of failing the
    whole load.  Valid text is split exactly as ``str.splitlines`` splits
    a file read in text mode.
    """
    for chunk in raw.splitlines():
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError:
            yield None
            continue
        for line in text.splitlines():
            if line.strip():
                yield decode_record(line)


#: The two line shapes :class:`DiskStore` writes, matched on raw bytes::
#:
#:     {"crc":N,"k":"<64 hex>","t":"v","v":0|1}
#:     {"crc":N,"i":<int>,"k":"<64 hex>","t":"c"}
#:
#: Only the canonical text ``encode_record`` produces matches (sorted keys,
#: compact separators, no leading zeros, lower-case hex keys).  Group 1 is
#: the CRC and group 2 the CRC'd body after its leading ``{``; groups 3-4
#: are a counterexample's index and key, groups 5-6 a verdict's key and
#: value.
_FAST_LINE = re.compile(
    rb'\{"crc":(0|[1-9][0-9]{0,9}),((?:'
    rb'"i":(0|-?[1-9][0-9]{0,17}),"k":"([0-9a-f]{64})","t":"c"'
    rb'|"k":"([0-9a-f]{64})","t":"v","v":([01])'
    rb')\})'
)
_CRC_OPEN_BRACE = zlib.crc32(b"{")


def fast_record(chunk: bytes):
    """``("v", key, verdict)`` or ``("c", key, index)`` for one line in
    the exact shape :class:`DiskStore` writes, with its CRC checked on the
    raw bytes; ``None`` for any other line.

    Skips the JSON parse and canonical re-serialization of
    :func:`decode_record`.  It accepts no line that :func:`decode_record`
    rejects, and for a line both accept it gives the same record.
    """
    m = _FAST_LINE.fullmatch(chunk)
    if m is None or int(m[1]) != zlib.crc32(m[2], _CRC_OPEN_BRACE):
        return None
    if m[5] is not None:
        return "v", m[5].decode(), m[6] == b"1"
    return "c", m[4].decode(), int(m[3])


#: stores not yet garbage-collected; flushed at interpreter exit
_LIVE_STORES: "weakref.WeakSet[DiskStore]" = weakref.WeakSet()


@atexit.register
def _flush_live_stores() -> None:
    for store in list(_LIVE_STORES):
        store.flush()


class DiskStore:
    """Append-only JSONL store for verdicts and counterexample indices.

    Lines are self-describing records::

        {"t": "v", "k": "<query key>", "v": 0 | 1}
        {"t": "c", "k": "<spec key>",  "i": <bank index>}

    The store is safe to share between concurrent writers — threads in one
    process (every method takes the store lock) and multiple processes
    appending to the same file.  Each flush lands as **one**
    ``os.write`` on an ``O_APPEND`` descriptor, so batches from different
    processes interleave at line-batch granularity rather than mid-line;
    the loader additionally tolerates the failure modes concurrency can
    still produce — torn or merged lines never parse (and new records
    carry a per-line CRC-32, so even a corruption that *does* parse is
    caught), and duplicate records (two processes proving the same
    verdict) are idempotent.  A store found corrupt at load time is
    quarantined: the damaged file moves aside to ``<path>.quarantine``
    and the surviving records are rewritten atomically, so a bad line is
    scrubbed once instead of re-skipped forever.  Writes are buffered and
    flushed periodically, on :meth:`close`, when the store is collected
    and at interpreter exit; a flush that fails with ``OSError`` re-queues
    its records rather than losing them or crashing synthesis.  The exit
    flush holds stores weakly, so a store is freed once its last user
    drops it.
    """

    FLUSH_EVERY = 128

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._verdicts: dict[str, bool] = {}
        self._counterexamples: dict[str, list[int]] = {}
        self._pending: list[str] = []
        self._lock = threading.RLock()
        self.corrupt_lines = 0
        self.load_errors = 0
        self.write_errors = 0
        self.quarantined: Path | None = None
        self._load()
        _LIVE_STORES.add(self)

    def _load(self) -> None:
        """Read the store, taking the fast path for canonical lines.

        A line in exactly the shape :func:`encode_record` writes is matched
        on its raw bytes and its CRC checked there, skipping the JSON parse
        and the canonical re-serialization.  Every other line (older
        unstamped records, damage, non-UTF-8 bytes) goes through
        :func:`decode_record`, so the loaded maps and the corrupt-line
        count are what a full decode of every line gives.
        """
        try:
            faults.fire(faults.SITE_CACHE_LOAD)
            if not self.path.exists():
                return
            raw = self.path.read_bytes()
        except OSError:
            self.load_errors += 1
            return
        for chunk in raw.splitlines():
            fast = fast_record(chunk)
            if fast is not None:
                self._load_record(*fast)
                continue
            for rec in decode_lines(chunk):
                if rec is None:
                    self.corrupt_lines += 1
                elif rec.get("t") == "v" and "k" in rec and "v" in rec:
                    self._load_record("v", rec["k"], bool(rec["v"]))
                elif rec.get("t") == "c" and "k" in rec and "i" in rec:
                    self._load_record("c", rec["k"], rec["i"])
                else:
                    self.corrupt_lines += 1
        if self.corrupt_lines:
            self._quarantine_and_compact()

    def _load_record(self, kind: str, key: str, value) -> None:
        if kind == "v":
            self._verdicts[key] = value
            return
        bucket = self._counterexamples.setdefault(key, [])
        if value not in bucket:
            bucket.append(value)

    def _quarantine_and_compact(self) -> None:
        """Move a damaged store aside and rewrite the surviving records.

        The quarantine rename and the compacted rewrite both go through
        ``os.replace``, so a crash at any point leaves either the old
        file, the quarantined copy, or the fully compacted store — never
        a half-written one.
        """
        quarantine = self.path.with_name(self.path.name + ".quarantine")
        try:
            os.replace(self.path, quarantine)
        except OSError:
            self.load_errors += 1
            return
        self.quarantined = quarantine
        lines = [
            encode_record({"t": "v", "k": key, "v": int(verdict)})
            for key, verdict in self._verdicts.items()
        ]
        lines.extend(
            encode_record({"t": "c", "k": key, "i": index})
            for key, bucket in self._counterexamples.items()
            for index in bucket
        )
        try:
            from ..fsutil import atomic_write_text

            atomic_write_text(
                self.path, "\n".join(lines) + "\n" if lines else ""
            )
        except OSError:
            # The quarantined copy still holds the data; appends resume
            # into a fresh file on the next flush.
            self.write_errors += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._verdicts)

    def get_verdict(self, key: str) -> bool | None:
        with self._lock:
            return self._verdicts.get(key)

    def put_verdict(self, key: str, verdict: bool) -> None:
        with self._lock:
            if key in self._verdicts:
                return
            self._verdicts[key] = verdict
            self._pending.append(
                encode_record({"t": "v", "k": key, "v": int(verdict)})
            )
            if len(self._pending) >= self.FLUSH_EVERY:
                self.flush()

    def counterexample_indices(self, key: str) -> list[int]:
        with self._lock:
            return list(self._counterexamples.get(key, ()))

    def add_counterexample(self, key: str, index: int) -> None:
        with self._lock:
            bucket = self._counterexamples.setdefault(key, [])
            if index in bucket:
                return
            bucket.append(index)
            self._pending.append(
                encode_record({"t": "c", "k": key, "i": index})
            )
            if len(self._pending) >= self.FLUSH_EVERY:
                self.flush()

    def flush(self) -> None:
        with self._lock:
            if not self._pending:
                return
            pending = self._pending
            self._pending = []
            payload = ("\n".join(pending) + "\n").encode()
            try:
                # Fault site cache.flush: a torn_write rule truncates the
                # payload (simulating a crash mid-append); an oserror rule
                # raises before the write, exercising the re-queue path.
                payload = faults.corrupt(faults.SITE_CACHE_FLUSH, payload)
                self.path.parent.mkdir(parents=True, exist_ok=True)
                # One O_APPEND write per batch: the kernel appends
                # atomically with respect to other appenders, so concurrent
                # processes sharing a cache dir interleave whole batches,
                # not bytes.
                fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
                try:
                    os.write(fd, payload)
                finally:
                    os.close(fd)
            except OSError:
                # Keep the records queued; the next flush (or close at
                # exit) retries.  Synthesis never fails over cache I/O.
                self.write_errors += 1
                self._pending = pending + self._pending

    def close(self) -> None:
        self.flush()

    def __del__(self) -> None:
        try:
            self.flush()
        except Exception:
            pass  # best-effort, like every other flush


@dataclasses.dataclass
class OracleCache:
    """Two-level verdict cache: in-process map over an optional disk store.

    Safe to share between threads: the compilation service hands one cache
    to every worker so concurrent jobs warm each other.  Verdicts are pure
    functions of their key, so a lost race is just a duplicate proof —
    the lock only protects the dict/store bookkeeping, never a verdict's
    validity.
    """

    store: DiskStore | None = None
    _verdicts: dict = dataclasses.field(default_factory=dict)
    _counterexamples: dict = dataclasses.field(default_factory=dict)
    _lock: threading.RLock = dataclasses.field(
        default_factory=threading.RLock, repr=False
    )

    @classmethod
    def with_disk(cls, directory: str | Path | None = None) -> "OracleCache":
        """A cache backed by ``<directory>/oracle.jsonl`` (default dir if
        ``None``)."""
        directory = Path(directory) if directory else default_cache_dir()
        return cls(store=DiskStore(directory / CACHE_FILE_NAME))

    def lookup(self, key: str) -> bool | None:
        with self._lock:
            verdict = self._verdicts.get(key)
            if verdict is None and self.store is not None:
                verdict = self.store.get_verdict(key)
                if verdict is not None:
                    self._verdicts[key] = verdict
            return verdict

    def record(self, key: str, verdict: bool) -> None:
        with self._lock:
            self._verdicts[key] = verdict
            if self.store is not None:
                self.store.put_verdict(key, verdict)

    def counterexample_indices(self, skey: str) -> list[int]:
        with self._lock:
            indices = list(self._counterexamples.get(skey, ()))
            if self.store is not None:
                for i in self.store.counterexample_indices(skey):
                    if i not in indices:
                        indices.append(i)
            return indices

    def record_counterexample(self, skey: str, index: int) -> None:
        with self._lock:
            bucket = self._counterexamples.setdefault(skey, [])
            if index not in bucket:
                bucket.append(index)
            if self.store is not None:
                self.store.add_counterexample(skey, index)

    def __len__(self) -> int:
        with self._lock:
            return len(self._verdicts)

    def flush(self) -> None:
        with self._lock:
            if self.store is not None:
                self.store.flush()


# ---------------------------------------------------------------------------
# Parallel candidate checking
# ---------------------------------------------------------------------------

_worker_local = threading.local()


def _pure_check(payload):
    """Worker entry point: one equivalence query with a per-worker oracle.

    Oracles are kept per ``(seed, rounds, batch_eval)`` in worker-local
    storage so the valuation banks they build amortize across batches.  The verdict is a
    pure function of the payload, which is what makes fan-out sound.

    ``payload`` is ``(spec, candidate, layout, seed, rounds, batch_eval)``
    plus an optional trailing *trace context* (``Tracer.context()``).
    Without one — the default — the return value is the bare verdict.
    With one, the worker records its oracle spans under a local tracer
    that shares the parent's ``trace_id`` and returns
    ``(verdict, span_dicts)``; the dispatching :class:`ParallelChecker`
    reattaches the subtree under the batch span.  The same payload shape
    crosses the whole process → thread → serial fallback ladder.
    """
    from ..targets import ensure_semantics
    from ..trace.core import NULL_TRACER, Tracer
    from .oracle import Oracle  # deferred: avoid a cycle at import time

    # Process-pool workers unpickle machine instructions that look their
    # descriptors up lazily by op name — make sure every target's ISA
    # semantics are registered in this interpreter first.
    ensure_semantics()

    # Fault site engine.worker: only observable in thread/serial modes —
    # process workers live in separate interpreters and never see the
    # parent's active plan (process crashes are injected at engine.batch).
    faults.fire(faults.SITE_ENGINE_WORKER)

    spec, candidate, layout, seed, rounds, batch_eval = payload[:6]
    trace_ctx = payload[6] if len(payload) > 6 else None
    oracles = getattr(_worker_local, "oracles", None)
    if oracles is None:
        oracles = _worker_local.oracles = {}
    oracle = oracles.get((seed, rounds, batch_eval))
    if oracle is None:
        oracle = oracles[(seed, rounds, batch_eval)] = Oracle(
            seed=seed, extra_random_rounds=rounds, batch_eval=batch_eval
        )
    if trace_ctx is None:
        return bool(oracle.equivalent(spec, candidate, layout))
    tracer = Tracer(trace_id=trace_ctx[0])
    oracle.tracer = tracer
    try:
        with tracer.span("engine.worker", pid=os.getpid()):
            verdict = bool(oracle.equivalent(spec, candidate, layout))
    finally:
        oracle.tracer = NULL_TRACER
    return verdict, tracer.tree()["spans"]


MODE_PROCESS = "process"
MODE_THREAD = "thread"
MODE_SERIAL = "serial"
_FALLBACK_ORDER = {MODE_PROCESS: MODE_THREAD, MODE_THREAD: MODE_SERIAL}


class ParallelChecker:
    """Deterministic fan-out of equivalence checks over a worker pool.

    ``jobs <= 1`` (or batches below ``min_batch``) run serially through the
    caller's oracle — the exact code path the serial engine uses.  Larger
    batches are dispatched to a process pool; any pool failure (spawn error,
    unpicklable candidate, worker crash) is first retried in the same mode
    — the pool is rebuilt and the batch resubmitted up to
    ``retry.attempts`` times with exponential backoff — and only a failure
    that outlives the retry budget degrades the checker one step
    (process → thread → serial) and transparently re-runs the batch, so a
    crash never changes results, only speed.
    """

    def __init__(self, jobs: int = 1, mode: str | None = None,
                 min_batch: int = 2, retry: RetryPolicy | None = None):
        if mode is not None and mode not in (
            MODE_PROCESS, MODE_THREAD, MODE_SERIAL
        ):
            raise ValueError(f"unknown checker mode: {mode}")
        self.jobs = max(1, int(jobs))
        self.mode = (
            MODE_SERIAL if self.jobs <= 1 else (mode or MODE_PROCESS)
        )
        self.min_batch = min_batch
        self.retry = retry if retry is not None else RetryPolicy()
        self.fallbacks = 0
        self.retries = 0
        self._executor = None
        self._executor_mode = None

    # -- pool management ---------------------------------------------------

    def _pool(self):
        if self._executor is None or self._executor_mode != self.mode:
            self.close()
            cls = (
                ProcessPoolExecutor
                if self.mode == MODE_PROCESS
                else ThreadPoolExecutor
            )
            self._executor = cls(max_workers=self.jobs)
            self._executor_mode = self.mode
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=False)
            self._executor = None
            self._executor_mode = None

    def _degrade(self) -> None:
        self.fallbacks += 1
        self.close()
        self.mode = _FALLBACK_ORDER.get(self.mode, MODE_SERIAL)

    # -- batch API ---------------------------------------------------------

    def check_batch(self, oracle, spec, candidates, layout) -> list:
        """Verdicts for every candidate, in candidate order."""
        n = len(candidates)
        if n == 0:
            return []
        if oracle.cancel is not None:
            # Cooperative cancellation observes batch boundaries: a batch
            # already dispatched to workers completes (its verdicts are
            # sound and cacheable), the next one never starts.
            oracle.cancel.check()
        if self.mode == MODE_SERIAL or n < self.min_batch:
            return [oracle.equivalent(spec, c, layout) for c in candidates]

        tracer = getattr(oracle, "tracer", None)
        trace_ctx = tracer.context() if tracer is not None else None
        with (tracer.span("engine.batch", n=n, mode=self.mode)
              if trace_ctx is not None else _NULL_CTX) as batch_span:
            verdicts: list = [None] * n
            to_run = []
            fp = getattr(oracle, "_fingerprinter", lambda: None)()
            for i, cand in enumerate(candidates):
                key = oracle.query_key(spec, cand, layout)
                hit = oracle.cache.lookup(key)
                if hit is not None:
                    oracle.note_cached_query(hit=True)
                    verdicts[i] = hit
                    continue
                if fp is not None:
                    # Parent-side equivalence-class lookup: a fanned-out
                    # verdict is recorded under the canonical key (cold
                    # stores stay complete) but skips worker dispatch.
                    resolved = fp.resolve(spec, cand, layout)
                    if resolved is not None:
                        oracle.note_fingerprint_query()
                        oracle.cache.record(key, resolved)
                        verdicts[i] = resolved
                        continue
                to_run.append((i, key, cand))
            if batch_span:
                batch_span.set(cached=n - len(to_run), dispatched=len(to_run))

            if to_run:
                payloads = [
                    (spec, cand, layout, oracle.seed,
                     oracle.extra_random_rounds,
                     getattr(oracle, "batch_eval", True), trace_ctx)
                    for _i, _key, cand in to_run
                ]
                results = self._dispatch(
                    payloads, getattr(oracle, "stats", None)
                )
                if results is None:
                    # Pool is gone; the degraded (eventually serial) retry
                    # below keeps verdicts identical.
                    if batch_span:
                        batch_span.set(degraded_to=self.mode)
                    return self.check_batch(oracle, spec, candidates, layout)
                for (i, key, cand), result in zip(to_run, results):
                    if isinstance(result, tuple):
                        verdict, spans = result
                        if tracer is not None:
                            tracer.attach(spans)
                    else:
                        verdict = result
                    oracle.note_cached_query(hit=False)
                    oracle.cache.record(key, verdict)
                    if fp is not None:
                        fp.learn(spec, cand, layout, verdict)
                    verdicts[i] = verdict
            return verdicts

    def first_equivalent(self, oracle, spec, candidates, layout):
        """Index of the first equivalent candidate, or ``None``.

        Serial mode stops at the first success (the classic loop); parallel
        mode dispatches *waves* of candidates concurrently and stops at the
        first wave containing a success, reducing by original order within
        it — the selected candidate is identical either way, and a hit in
        an early wave never pays for the candidates behind it.
        """
        if not candidates:
            return None
        if self.mode == MODE_SERIAL or len(candidates) < self.min_batch:
            for i, cand in enumerate(candidates):
                if oracle.equivalent(spec, cand, layout):
                    return i
            return None
        wave = max(self.jobs * 2, self.min_batch)
        for start in range(0, len(candidates), wave):
            if oracle.cancel is not None:
                oracle.cancel.check()
            verdicts = self.check_batch(
                oracle, spec, candidates[start:start + wave], layout
            )
            for i, verdict in enumerate(verdicts):
                if verdict:
                    return start + i
        return None

    def _dispatch(self, payloads, stats=None) -> list | None:
        """Run payloads on the current pool; retry, then degrade, on failure.

        Each mode gets ``retry.attempts`` resubmissions with a rebuilt pool
        and exponential backoff before the checker steps down the
        process → thread → serial ladder.  A transient worker crash (OOM
        kill, injected ``BrokenProcessPool``) therefore costs one pool
        rebuild, not the whole process tier.
        """
        while self.mode != MODE_SERIAL:
            for attempt in range(self.retry.attempts + 1):
                try:
                    faults.fire(faults.SITE_ENGINE_BATCH)
                    chunk = max(1, len(payloads) // (self.jobs * 2) or 1)
                    return list(
                        self._pool().map(
                            _pure_check, payloads, chunksize=chunk
                        )
                    )
                except Exception:
                    # The pool may be broken (dead worker, unpicklable
                    # payload); tear it down so a retry starts fresh.
                    self.close()
                    if attempt < self.retry.attempts:
                        self.retries += 1
                        if stats is not None:
                            stats.count_retry()
                        self.retry.sleep(attempt)
            self._degrade()
        return None
