"""The persistent telemetry corpus: per-process JSONL segments.

A *store* is a directory of append-only segment files
(``segment-<pid>-<suffix>.jsonl``).  Each producing process owns exactly
one segment and only ever appends to it, so concurrent producers — the
CLI, a running service, several benchmark processes — never contend on
a file; readers merge every segment.  Records reuse the verdict store's
CRC-stamped line format (:func:`repro.synthesis.engine.encode_record` /
:func:`~repro.synthesis.engine.decode_record`), each flush lands as one
``os.write`` on an ``O_APPEND`` descriptor, and a segment found corrupt
at read time is quarantined to ``<name>.quarantine`` with the surviving
records rewritten atomically — the exact contract the verdict and rule
stores already prove.

**Telemetry is strictly best-effort.**  Every write path swallows its
own failures into counters (``write_errors``), and the ``telemetry.flush``
fault site (:mod:`repro.faults`) exists so the chaos suite can prove a
corrupt or unwritable store never fails — or even degrades — a compile,
mirroring the ``rules.load`` silent-fallback contract.
"""

from __future__ import annotations

import atexit
import os
import threading
import uuid
from pathlib import Path

from .. import faults
from ..synthesis.engine import (
    decode_lines,
    default_cache_dir,
    encode_record,
)
from ..trace.log import get_logger
from .record import is_record

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".jsonl"

_log = get_logger("repro.telemetry")


def default_telemetry_dir() -> Path:
    """The default store location: ``<cache dir>/telemetry`` (honors
    ``$REPRO_CACHE_DIR`` through :func:`default_cache_dir`)."""
    return default_cache_dir() / "telemetry"


def segment_files(directory: str | os.PathLike) -> list:
    """Every segment path in ``directory``, sorted by name (stable merge
    order).  Missing or unreadable directories read as empty."""
    try:
        entries = sorted(Path(directory).glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"))
    except OSError:
        return []
    return entries


class TelemetryStore:
    """One process's append handle onto a telemetry store directory.

    Thread-safe (the service's workers share one instance).  The segment
    file is created lazily on the first successful flush, so constructing
    a store costs nothing and an unwritable directory surfaces only as a
    ``write_errors`` count — never an exception out of :meth:`append` or
    :meth:`flush`.
    """

    FLUSH_EVERY = 8

    def __init__(self, directory: str | os.PathLike | None = None):
        base = Path(directory) if directory is not None \
            else default_telemetry_dir()
        self.directory = base
        self.segment = base / (
            f"{SEGMENT_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:8]}"
            f"{SEGMENT_SUFFIX}"
        )
        self._lock = threading.Lock()
        self._pending: list[str] = []
        self.appended = 0
        self.write_errors = 0
        atexit.register(self.flush)

    def append(self, record: dict) -> str | None:
        """Queue one record; returns its id, or ``None`` on any failure.

        Batches flush every :attr:`FLUSH_EVERY` records; call
        :meth:`flush` to force the tail out (the emit helpers do, so a
        one-compile CLI run is durable before the process exits).
        """
        try:
            line = encode_record(record)
        except (TypeError, ValueError):
            return None
        with self._lock:
            self._pending.append(line)
            self.appended += 1
            pending = len(self._pending)
        if pending >= self.FLUSH_EVERY:
            self.flush()
        return record.get("id")

    def flush(self) -> None:
        """Append pending records in one ``O_APPEND`` write; best-effort.

        Fault site ``telemetry.flush``: a ``torn_write`` rule truncates
        the payload mid-line (the reader's CRC must catch it), while
        ``error``/``oserror`` rules raise here and are swallowed below —
        either way the compile that produced the records is untouched.
        """
        with self._lock:
            if not self._pending:
                return
            pending = self._pending
            self._pending = []
        payload = ("\n".join(pending) + "\n").encode()
        try:
            payload = faults.corrupt(faults.SITE_TELEMETRY_FLUSH, payload)
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                self.segment, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
        except Exception as exc:
            # Telemetry must never fail its producer: count the loss,
            # drop the batch (re-queueing could grow without bound under
            # a permanently unwritable store) and move on.
            self.write_errors += 1
            _log.warning("telemetry flush failed; records dropped",
                         segment=str(self.segment),
                         error=f"{type(exc).__name__}: {exc}")


def _quarantine_and_compact(path: Path, survivors: list) -> Path | None:
    """Move a corrupt segment aside and rewrite its surviving records
    atomically; returns the quarantine path (``None`` if even that
    failed — the reader keeps the in-memory survivors either way)."""
    quarantine = path.with_name(path.name + ".quarantine")
    try:
        os.replace(path, quarantine)
    except OSError:
        return None
    _log.warning("quarantined corrupt telemetry segment",
                 path=str(quarantine))
    lines = [encode_record(rec) for rec in survivors]
    try:
        from ..fsutil import atomic_write_text

        atomic_write_text(path, "\n".join(lines) + "\n" if lines else "")
    except OSError:
        pass  # the quarantined copy still holds the data
    return quarantine


class ReadReport:
    """What a corpus read found: records plus damage accounting."""

    def __init__(self):
        self.records: list = []
        self.segments = 0
        self.corrupt_lines = 0
        self.skipped_records = 0
        self.quarantined: list = []


def read_store(directory: str | os.PathLike, repair: bool = True) -> ReadReport:
    """Load every readable record from a store directory.

    Records are returned in ``(ts, segment order)`` order.  Lines that
    fail the CRC or JSON parse are counted in ``corrupt_lines``; records
    from an unknown schema are counted in ``skipped_records`` (a newer
    writer's corpus reads partially rather than not at all).  With
    ``repair=True`` a segment containing corrupt lines is quarantined and
    compacted in place, exactly like the verdict and rule stores; pass
    ``repair=False`` for read-only consumers of stores they do not own.
    """
    report = ReadReport()
    for path in segment_files(directory):
        try:
            raw = path.read_bytes()
        except OSError:
            continue
        report.segments += 1
        survivors = []
        damaged = 0
        for rec in decode_lines(raw):
            if rec is None:
                damaged += 1
                continue
            if not is_record(rec):
                report.skipped_records += 1
                survivors.append(rec)  # unknown schema: keep on disk
                continue
            survivors.append(rec)
            report.records.append(rec)
        if damaged:
            report.corrupt_lines += damaged
            if repair:
                quarantine = _quarantine_and_compact(path, survivors)
                if quarantine is not None:
                    report.quarantined.append(quarantine)
    report.records.sort(key=lambda r: r.get("ts", 0.0))
    return report


def emit(store: TelemetryStore | None, record: dict) -> str | None:
    """Append + flush one record through a possibly-absent store.

    The single producer-facing entry point: any exception — a broken
    store object, an injected fault past the flush's own guard — is
    swallowed, because no compile may ever fail over telemetry.
    """
    if store is None:
        return None
    try:
        record_id = store.append(record)
        store.flush()
        return record_id
    except Exception as exc:  # pragma: no cover - belt and braces
        _log.warning("telemetry emit failed",
                     error=f"{type(exc).__name__}: {exc}")
        return None
