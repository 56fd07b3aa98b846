"""The persistent, indexed rewrite-rule library.

One library per target ISA, stored as an append-only CRC-stamped JSONL
file next to the verdict store (``rules_<target>.jsonl`` under the cache
directory).  Records reuse the verdict store's line format
(:func:`repro.synthesis.engine.encode_record` /
:func:`~repro.synthesis.engine.decode_record`): a per-line CRC-32 catches
torn or merged appends, a corrupt file is quarantined to
``<path>.quarantine`` and the surviving rules are rewritten atomically
(:func:`repro.fsutil.atomic_write_text`), and every batch lands as one
``os.write`` on an ``O_APPEND`` descriptor so concurrent processes
interleave whole batches.  Load failures of any kind degrade to an empty
library — the compile falls back to full synthesis, it never fails.

Matching is two dictionary lookups on the spec's abstraction keys
(:func:`repro.rules.codec.abstract_spec`): the *exact* index first (the
constant-literal canonical key, so replayed traffic reproduces the
originally synthesized program byte for byte), then the
constant-abstracted *LHS* index in ascending cost order.  Every
instantiated candidate is re-checked against the full valuation bank via
the oracle's batched ``denote_bank`` engine — one query — before it is
returned, so soundness never rests on the generalization step.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .. import faults
from ..errors import CancelledError, ReproError
from ..synthesis.engine import (
    decode_lines,
    default_cache_dir,
    encode_record,
)
from ..trace.log import get_logger
from .codec import (
    FORMAT_VERSION,
    RuleCodecError,
    abstract_spec,
    decode_node,
    encode_program,
    root_signature,
)

#: candidate instantiations tried per spec before giving up (each failed
#: re-check costs one oracle query, so the cap bounds fast-path overhead)
MAX_CANDIDATES = 4

_log = get_logger("repro.rules")


def rules_file(directory: str | os.PathLike | None, target: str) -> Path:
    """The per-target library path under ``directory`` (or the default
    cache directory, honoring ``$REPRO_CACHE_DIR``)."""
    base = Path(directory) if directory else default_cache_dir()
    return base / f"rules_{target}.jsonl"


@dataclass(frozen=True)
class Rule:
    """One mined lowering: an abstracted spec pattern and its program.

    ``cost`` is the target cost model's ordering key for the source
    program (:attr:`repro.hvx.cost.Cost.key`), used to try cheaper
    candidates first when several rules share an LHS.  ``provenance``
    points back at where the rule came from (the miner or the pipeline's
    feedback loop, plus the workload when known).
    """

    target: str
    exact: str
    lhs: str
    root: str
    rhs: dict
    cost: tuple = ()
    provenance: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "t": "r",
            "fmt": FORMAT_VERSION,
            "target": self.target,
            "exact": self.exact,
            "lhs": self.lhs,
            "root": self.root,
            "rhs": self.rhs,
            "cost": list(self.cost),
            "prov": self.provenance,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Rule | None":
        if rec.get("t") != "r" or rec.get("fmt") != FORMAT_VERSION:
            return None
        try:
            return cls(
                target=rec["target"],
                exact=rec["exact"],
                lhs=rec["lhs"],
                root=rec.get("root", ""),
                rhs=rec["rhs"],
                cost=tuple(rec.get("cost", ())),
                provenance=dict(rec.get("prov", {})),
            )
        except (KeyError, TypeError):
            return None


class RuleLibrary:
    """Per-target rule index with persistence and a feedback loop.

    Thread-safe: the service shares one instance per target across its
    worker pool.  ``path=None`` keeps the library purely in-memory (the
    tests' default).
    """

    FLUSH_EVERY = 32

    def __init__(self, path: str | os.PathLike | None = None,
                 target: str = "hvx"):
        self.path = Path(path) if path is not None else None
        self.target = target
        self._lock = threading.RLock()
        self._by_exact: dict[str, Rule] = {}
        self._by_lhs: dict[str, list[Rule]] = {}
        self._roots: set[str] = set()
        self._seen: set[tuple[str, str]] = set()
        self._pending: list[str] = []
        self.corrupt_lines = 0
        self.load_errors = 0
        self.write_errors = 0
        self.quarantined: Path | None = None
        if self.path is not None:
            self._load()
        atexit.register(self.flush)

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        try:
            faults.fire(faults.SITE_RULES_LOAD)
            if not self.path.exists():
                return
            raw = self.path.read_bytes()
        except OSError:
            # Unreadable library: compile everything the slow way rather
            # than failing; the path stays writable for fresh rules.
            self.load_errors += 1
            _log.warning("rule library unreadable; running without it",
                         path=str(self.path))
            return
        for rec in decode_lines(raw):
            rule = Rule.from_record(rec) if rec is not None else None
            if rule is None:
                self.corrupt_lines += 1
                continue
            if rule.target != self.target:
                # Someone pointed two targets at one file; keep only ours.
                self.corrupt_lines += 1
                continue
            self._index(rule)
        if self.corrupt_lines:
            self._quarantine_and_compact()

    def _quarantine_and_compact(self) -> None:
        quarantine = self.path.with_name(self.path.name + ".quarantine")
        try:
            os.replace(self.path, quarantine)
        except OSError:
            self.load_errors += 1
            return
        self.quarantined = quarantine
        _log.warning("quarantined corrupt rule library",
                     path=str(quarantine), corrupt_lines=self.corrupt_lines)
        lines = [encode_record(rule.to_record())
                 for rule in self._iter_rules()]
        try:
            from ..fsutil import atomic_write_text

            atomic_write_text(
                self.path, "\n".join(lines) + "\n" if lines else ""
            )
        except OSError:
            self.write_errors += 1

    def _iter_rules(self):
        seen = set()
        for rules in self._by_lhs.values():
            for rule in rules:
                key = (rule.exact, _rhs_dump(rule.rhs))
                if key not in seen:
                    seen.add(key)
                    yield rule

    def flush(self) -> None:
        """Append pending rules in one ``O_APPEND`` write; best-effort."""
        with self._lock:
            if not self._pending or self.path is None:
                return
            pending = self._pending
            self._pending = []
            payload = ("\n".join(pending) + "\n").encode()
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(
                    self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
                try:
                    os.write(fd, payload)
                finally:
                    os.close(fd)
            except OSError:
                self.write_errors += 1
                self._pending = pending + self._pending

    # -- indexing ----------------------------------------------------------

    def _index(self, rule: Rule) -> bool:
        key = (rule.exact, _rhs_dump(rule.rhs))
        if key in self._seen:
            return False
        self._seen.add(key)
        self._by_exact.setdefault(rule.exact, rule)
        bucket = self._by_lhs.setdefault(rule.lhs, [])
        bucket.append(rule)
        bucket.sort(key=lambda r: (r.cost, r.exact))
        self._roots.add(rule.root)
        return True

    # -- the fast path -----------------------------------------------------

    def match(self, spec, oracle):
        """The verified program for ``spec``, or ``None`` on a miss.

        Tries the exact-key rule first, then LHS-key rules in cost order,
        at most :data:`MAX_CANDIDATES` total.  Every candidate is
        instantiated under the spec's own bindings and re-checked with one
        full-bank oracle query; a refuted candidate counts a
        ``rule_recheck_failure`` and the search continues.
        """
        with self._lock:
            if not self._seen or root_signature(spec) not in self._roots:
                return None
        try:
            pattern = abstract_spec(spec)
        except RuleCodecError:
            return None
        with self._lock:
            candidates = []
            exact = self._by_exact.get(pattern.exact)
            if exact is not None:
                candidates.append(exact)
            for rule in self._by_lhs.get(pattern.lhs, ()):
                if rule is not exact:
                    candidates.append(rule)
        for rule in candidates[:MAX_CANDIDATES]:
            try:
                program = decode_node(rule.rhs, pattern.bindings)
            except RuleCodecError:
                continue
            try:
                ok = oracle.equivalent(spec, program)
            except CancelledError:
                raise
            except ReproError:
                continue
            if ok:
                return program
            oracle.stats.count_rule_recheck_failure()
        return None

    # -- mining / feedback -------------------------------------------------

    def learn(self, spec, program, cost=None, provenance=None) -> bool:
        """Generalize one verified ``spec -> program`` lowering into a
        rule; returns whether it was new.

        ``cost`` is the target cost model's ordering key for ``program``
        (callers that have a :class:`~repro.targets.TargetDescription` at
        hand pass ``target.cost_of(program).key``).
        """
        pattern = abstract_spec(spec)
        ab = _reabstract(spec)
        rhs = encode_program(program, ab)
        rule = Rule(
            target=self.target,
            exact=pattern.exact,
            lhs=pattern.lhs,
            root=pattern.root,
            rhs=rhs,
            cost=tuple(cost) if cost is not None else (),
            provenance=dict(provenance or {}),
        )
        with self._lock:
            if not self._index(rule):
                return False
            if self.path is not None:
                self._pending.append(encode_record(rule.to_record()))
                if len(self._pending) >= self.FLUSH_EVERY:
                    self.flush()
        return True


def _reabstract(spec):
    from .codec import Abstraction, encode_node

    ab = Abstraction()
    encode_node(spec, ab)
    return ab


def _rhs_dump(rhs: dict) -> str:
    return json.dumps(rhs, separators=(",", ":"), sort_keys=True)
