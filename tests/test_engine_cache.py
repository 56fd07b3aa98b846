"""Tests for the memoization layer (:mod:`repro.synthesis.engine`).

Covers canonical query keying (rename-insensitive, layout/seed/tag
sensitive), the append-only JSONL disk store (its fast load path against
the full decoder, and its lifetime), two-level verdict caching, and
counterexample-bank persistence across Oracle instances.
"""

import gc
import json
import re
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hvx import isa as H
from repro.ir import builder as B
from repro.synthesis import engine, valuation
from repro.synthesis.engine import (
    CACHE_DIR_ENV,
    CACHE_FILE_NAME,
    DiskStore,
    OracleCache,
    decode_lines,
    decode_record,
    default_cache_dir,
    encode_record,
    fast_record,
    query_key,
    spec_key,
)
from repro.synthesis.oracle import LAYOUT_DEINTERLEAVED, LAYOUT_INORDER, Oracle
from repro.types import U8, U16


def u8v(buffer="in", offset=0, lanes=8):
    return B.load(buffer, offset, lanes, U8)


class TestQueryKey:
    def test_deterministic(self):
        spec = B.widen(u8v()) * 2
        cand = B.shl(B.widen(u8v()), B.broadcast(1, 8, U16))
        assert query_key(spec, cand, LAYOUT_INORDER) == \
            query_key(spec, cand, LAYOUT_INORDER)

    def test_rename_insensitive(self):
        # The same query over a renamed buffer must share one cache entry.
        k1 = query_key(B.widen(u8v("in")) * 2, B.widen(u8v("in")) * 2,
                       LAYOUT_INORDER)
        k2 = query_key(B.widen(u8v("input")) * 2, B.widen(u8v("input")) * 2,
                       LAYOUT_INORDER)
        assert k1 == k2

    def test_rename_map_shared_with_candidate(self):
        # A candidate reading a *different* buffer than its spec is a
        # different query from one reading the same buffer.
        spec = u8v("a")
        same = query_key(spec, u8v("a"), LAYOUT_INORDER)
        other = query_key(spec, u8v("b"), LAYOUT_INORDER)
        assert same != other

    def test_layout_sensitive(self):
        spec, cand = u8v(), u8v()
        assert query_key(spec, cand, LAYOUT_INORDER) != \
            query_key(spec, cand, LAYOUT_DEINTERLEAVED)

    def test_seed_and_rounds_sensitive(self):
        spec, cand = u8v(), u8v()
        base = query_key(spec, cand, LAYOUT_INORDER, seed=0, rounds=4)
        assert base != query_key(spec, cand, LAYOUT_INORDER, seed=1, rounds=4)
        assert base != query_key(spec, cand, LAYOUT_INORDER, seed=0, rounds=5)

    def test_tag_separates_full_from_lane0(self):
        spec, cand = u8v(), u8v()
        assert query_key(spec, cand, LAYOUT_INORDER, tag="full") != \
            query_key(spec, cand, LAYOUT_INORDER, tag="lane0")

    def test_expression_kind_matters(self):
        # An IR load and the HVX load denote the same lanes but are
        # different candidates (different cost, different printing).
        spec = u8v()
        assert query_key(spec, u8v(), LAYOUT_INORDER) != \
            query_key(spec, H.HvxLoad("in", 0, 8, U8), LAYOUT_INORDER)

    def test_oracle_key_matches_module_key(self):
        spec = B.widen(u8v()) * 2
        cand = B.widen(u8v()) * 3
        oracle = Oracle(seed=7, extra_random_rounds=2)
        assert oracle.query_key(spec, cand, LAYOUT_INORDER) == \
            query_key(spec, cand, LAYOUT_INORDER, seed=7, rounds=2)

    def test_spec_key_rename_insensitive(self):
        assert spec_key(B.widen(u8v("x")) * 2) == \
            spec_key(B.widen(u8v("y")) * 2)


class TestDiskStore:
    def test_missing_file_is_empty(self, tmp_path):
        store = DiskStore(tmp_path / "oracle.jsonl")
        assert len(store) == 0
        assert store.get_verdict("nope") is None
        assert store.counterexample_indices("nope") == []

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        store = DiskStore(path)
        store.put_verdict("k1", True)
        store.put_verdict("k2", False)
        store.add_counterexample("s1", 3)
        store.add_counterexample("s1", 5)
        store.close()

        reloaded = DiskStore(path)
        assert reloaded.get_verdict("k1") is True
        assert reloaded.get_verdict("k2") is False
        assert reloaded.counterexample_indices("s1") == [3, 5]

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        path.write_text(
            json.dumps({"t": "v", "k": "good", "v": 1}) + "\n"
            + "{not json at all\n"
            + json.dumps(["wrong", "shape"]) + "\n"
            + json.dumps({"t": "??", "k": "x"}) + "\n"
            + json.dumps({"t": "c", "k": "s", "i": 2}) + "\n"
            + '{"t": "v", "k": "trunc'  # interrupted final write
        )
        store = DiskStore(path)
        assert store.get_verdict("good") is True
        assert store.counterexample_indices("s") == [2]
        assert len(store) == 1

    def test_writes_are_buffered_until_flush(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        store = DiskStore(path)
        store.put_verdict("k", True)
        assert not path.exists()  # buffered
        store.flush()
        assert path.exists()
        rec = json.loads(path.read_text())
        crc = rec.pop("crc")
        assert isinstance(crc, int)  # every new record is checksummed
        assert rec == {"t": "v", "k": "k", "v": 1}

    def test_flush_every_threshold(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        store = DiskStore(path)
        for i in range(DiskStore.FLUSH_EVERY):
            store.put_verdict(f"k{i}", i % 2 == 0)
        # the threshold write happened without an explicit flush
        assert len(path.read_text().splitlines()) == DiskStore.FLUSH_EVERY

    def test_duplicates_not_rewritten(self, tmp_path):
        path = tmp_path / "oracle.jsonl"
        store = DiskStore(path)
        store.put_verdict("k", True)
        store.put_verdict("k", True)
        store.add_counterexample("s", 1)
        store.add_counterexample("s", 1)
        store.close()
        assert len(path.read_text().splitlines()) == 2


class TestOracleMemoization:
    def test_second_query_hits_cache(self):
        oracle = Oracle()
        spec = B.widen(u8v()) * 2
        cand = B.shl(B.widen(u8v()), B.broadcast(1, 8, U16))
        assert oracle.equivalent(spec, cand)
        assert oracle.equivalent(spec, cand)
        assert oracle.stats.total_cache_hits == 1
        assert oracle.stats.total_cache_misses == 1

    def test_negative_verdicts_cached(self):
        oracle = Oracle()
        spec = B.widen(u8v()) * 2
        wrong = B.widen(u8v()) * 3
        assert not oracle.equivalent(spec, wrong)
        assert not oracle.equivalent(spec, wrong)
        assert oracle.stats.total_cache_hits == 1

    def test_lane0_queries_cached_separately(self):
        oracle = Oracle()
        spec, cand = u8v(), u8v()
        assert oracle.equivalent(spec, cand)
        assert oracle.equivalent_lane0(spec, cand)  # full hit can't answer
        assert oracle.stats.total_cache_misses == 2
        assert oracle.equivalent_lane0(spec, cand)
        assert oracle.stats.total_cache_hits == 1

    def test_out_of_stage_queries_attributed_to_verify(self):
        oracle = Oracle()
        oracle.equivalent(u8v(), u8v())
        assert oracle.stats.stages["verify"].queries == 1
        with oracle.stats.stage("lifting"):
            oracle.equivalent(u8v(), u8v())
        assert oracle.stats.stages["lifting"].queries == 1
        assert oracle.stats.stages["verify"].queries == 1

    def test_verdicts_persist_across_oracles(self, tmp_path):
        spec = B.widen(u8v()) * 2
        cand = B.shl(B.widen(u8v()), B.broadcast(1, 8, U16))

        first = Oracle(cache=OracleCache.with_disk(tmp_path))
        assert first.equivalent(spec, cand)
        first.cache.flush()

        second = Oracle(cache=OracleCache.with_disk(tmp_path))
        assert second.equivalent(spec, cand)
        assert second.stats.total_cache_hits == 1
        assert second.stats.total_cache_misses == 0

    def test_cached_verdict_needs_no_evaluation(self, tmp_path, monkeypatch):
        # A warm store answers without building a valuation bank at all.
        spec = B.widen(u8v()) * 2
        wrong = B.widen(u8v()) * 3
        warm = Oracle(cache=OracleCache.with_disk(tmp_path))
        assert not warm.equivalent(spec, wrong)
        warm.cache.flush()

        def boom(*args, **kwargs):
            raise AssertionError("bank should not be rebuilt on a cache hit")

        monkeypatch.setattr(valuation, "environment_bank", boom)
        cold = Oracle(cache=OracleCache.with_disk(tmp_path))
        assert not cold.equivalent(spec, wrong)

    def test_counterexamples_persist_across_oracles(self, tmp_path):
        spec = B.widen(u8v()) * 2
        wrong = B.widen(u8v()) * 3

        first = Oracle(cache=OracleCache.with_disk(tmp_path))
        assert not first.equivalent(spec, wrong)
        assert first.counterexamples_for(spec)
        first.cache.flush()

        second = Oracle(cache=OracleCache.with_disk(tmp_path))
        replay = second.counterexamples_for(spec)
        assert replay
        # the persisted index resolves to the same refuting environment
        assert [i for i, _env in replay] == \
            [i for i, _env in first.counterexamples_for(spec)]

    def test_rename_shares_cache_entry(self):
        oracle = Oracle()
        assert oracle.equivalent(B.widen(u8v("a")) * 2, B.widen(u8v("a")) * 2)
        assert oracle.equivalent(B.widen(u8v("b")) * 2, B.widen(u8v("b")) * 2)
        assert oracle.stats.total_cache_hits == 1


class TestConcurrentWriters:
    """The service shares one store across workers and cache dirs across
    processes; appends must interleave at line granularity."""

    def test_threads_sharing_one_store(self, tmp_path):
        import threading

        path = tmp_path / "oracle.jsonl"
        store = DiskStore(path)
        barrier = threading.Barrier(8)

        def writer(t):
            barrier.wait()
            for i in range(200):
                store.put_verdict(f"k{t}-{i}", (t + i) % 2 == 0)
                if i % 50 == 0:
                    store.flush()

        threads = [
            threading.Thread(target=writer, args=(t,)) for t in range(8)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        store.close()

        lines = path.read_text().splitlines()
        assert len(lines) == 8 * 200  # no duplicates, no losses
        for line in lines:
            rec = json.loads(line)  # raises if any line tore
            assert rec["t"] == "v"
        reloaded = DiskStore(path)
        assert len(reloaded) == 8 * 200
        assert reloaded.get_verdict("k3-101") is ((3 + 101) % 2 == 0)

    def test_two_stores_appending_to_one_file(self, tmp_path):
        # Two *instances* on one path model two processes sharing a cache
        # dir: each is blind to the other's in-memory state, so both may
        # prove the same verdict — the duplicate must be idempotent.
        path = tmp_path / "oracle.jsonl"
        first, second = DiskStore(path), DiskStore(path)
        first.put_verdict("shared", True)
        second.put_verdict("shared", True)
        first.put_verdict("first-only", False)
        second.put_verdict("second-only", True)
        second.add_counterexample("s", 7)
        first.flush()
        second.flush()

        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)
        merged = DiskStore(path)
        assert merged.get_verdict("shared") is True
        assert merged.get_verdict("first-only") is False
        assert merged.get_verdict("second-only") is True
        assert merged.counterexample_indices("s") == [7]
        assert len(merged) == 3

    def test_interleaved_flushes_from_competing_threads(self, tmp_path):
        import threading

        path = tmp_path / "oracle.jsonl"
        barrier = threading.Barrier(4)

        def hammer(t):
            own = DiskStore(path)
            barrier.wait()
            for i in range(100):
                own.put_verdict(f"w{t}-{i}", True)
                own.flush()  # every record races with the other writers

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

        keys = set()
        for line in path.read_text().splitlines():
            rec = json.loads(line)  # a torn write would fail here
            keys.add(rec["k"])
        assert keys == {f"w{t}-{i}" for t in range(4) for i in range(100)}


class TestCacheDir:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        path = default_cache_dir()
        assert path.name == "repro-rake"
        assert path.parent.name == ".cache"

    def test_with_disk_places_store_in_dir(self, tmp_path):
        cache = OracleCache.with_disk(tmp_path)
        cache.record("k", True)
        cache.flush()
        assert (tmp_path / CACHE_FILE_NAME).exists()

    def test_with_disk_uses_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = OracleCache.with_disk()
        assert cache.store.path == tmp_path / CACHE_FILE_NAME


# ---------------------------------------------------------------------------
# The store loader's fast path against the full decoder
# ---------------------------------------------------------------------------

_HEX = "0123456789abcdef"
_store_keys = st.one_of(
    st.text(_HEX, min_size=64, max_size=64),  # what the oracle writes
    st.text(max_size=8),
)
_records = st.one_of(
    st.builds(lambda k, v: {"t": "v", "k": k, "v": v},
              _store_keys, st.integers(0, 1)),
    st.builds(lambda k, i: {"t": "c", "k": k, "i": i}, _store_keys,
              st.integers(0, 12) | st.integers(-2 ** 70, 2 ** 70)),
)


def _reordered(line: str, order: int) -> str:
    rec = json.loads(line)
    keys = list(rec)
    keys = keys[order % len(keys):] + keys[:order % len(keys)]
    return json.dumps({k: rec[k] for k in keys}, separators=(",", ":"))


_MUTATIONS = (
    "none", "flip", "truncate", "merge", "space", "reorder",
    "zero_pad", "upper_hex", "dup_crc",
)


def _restamp(raw: bytes) -> bytes:
    """Re-stamp the leading CRC over the raw text that follows it, as a
    writer that does not canonicalize would: only the full decoder's
    canonical re-serialization can then tell a non-canonical line."""
    m = re.fullmatch(rb'\{"crc":[0-9]+,(.*)', raw, re.S)
    if m is None:
        return raw
    return b'{"crc":%d,' % zlib.crc32(b"{" + m[1]) + m[1]


@st.composite
def store_lines(draw):
    """One line as raw bytes: an encoded record, or a mutation of one,
    optionally with its CRC re-stamped over the mutated text."""
    line = encode_record(draw(_records))
    kind = draw(st.sampled_from(_MUTATIONS))
    pos = draw(st.integers(0, len(line)))
    restamp = _restamp if draw(st.booleans()) else bytes
    if kind == "flip":
        data = bytearray(line.encode())
        data[pos % len(data)] ^= draw(st.integers(1, 255))
        return restamp(bytes(data))
    if kind == "truncate":
        line = line[:pos]
    elif kind == "merge":
        line += encode_record(draw(_records))
    elif kind == "space":
        line = line[:pos] + " " + line[pos:]
    elif kind == "reorder":
        line = _reordered(line, draw(st.integers(1, 4)))
    elif kind == "zero_pad":
        field = draw(st.sampled_from(["crc", "i", "v"]))
        line = re.sub(rf'"{field}":(-?)', rf'"{field}":\g<1>0', line)
    elif kind == "upper_hex":
        line = re.sub(r"[0-9a-f]{64}", lambda m: m[0].upper(), line)
    elif kind == "dup_crc":
        crc = re.match(r'\{("crc":\d+,)', line)[1]
        line = "{" + crc + line[1:]
    return restamp(line.encode())


def _slow(raw: bytes):
    """What the full decoder makes of one line (``None``: rejected)."""
    try:
        return decode_record(raw.decode("utf-8"))
    except UnicodeDecodeError:
        return None


def _assert_fast_agrees(raw: bytes) -> None:
    fast = fast_record(raw)
    if fast is None:
        return
    kind, key, value = fast
    if kind == "v":
        assert type(value) is bool
        assert _slow(raw) == {"t": "v", "k": key, "v": int(value)}
    else:
        assert _slow(raw) == {"t": "c", "k": key, "i": value}


_KEY = "0123456789abcdef" * 4
#: non-canonical spellings of oracle records, each CRC-stamped over its
#: own text; the full decoder rejects all but the upper-case key
_FORGERIES = (
    '"i":05,"k":"%s","t":"c"}' % _KEY,
    '"i":-0,"k":"%s","t":"c"}' % _KEY,
    '"k":"%s","t":"v","v":01}' % _KEY,
    '"k":"%s","t":"v","v":true}' % _KEY,
    '"k":"%s","t":"v","v":1.0}' % _KEY,
    '"k":"%s","t":"v","v": 1}' % _KEY,
    '"k":"%s","v":1,"t":"v"}' % _KEY,
    '"k":"%s","t":"v","v":1,"v":1}' % _KEY,
    '"crc":1,"k":"%s","t":"v","v":1}' % _KEY,
    '"k":"%s","t":"v","v":1}' % _KEY.upper(),
)


class TestFastStoreDecoder:
    @settings(max_examples=600, deadline=None)
    @given(store_lines())
    def test_fast_path_never_disagrees_with_decode_record(self, raw):
        _assert_fast_agrees(raw)

    @pytest.mark.parametrize("body", _FORGERIES)
    def test_restamped_non_canonical_lines(self, body):
        _assert_fast_agrees(_restamp(b'{"crc":0,' + body.encode()))

    @settings(max_examples=100, deadline=None)
    @given(_records)
    def test_canonical_oracle_records_take_the_fast_path(self, rec):
        raw = encode_record(rec).encode()
        if not re.fullmatch("[0-9a-f]{64}", rec["k"]) or not (
            -10 ** 17 < rec.get("i", 0) < 10 ** 17
        ):
            return  # outside the two shapes the oracle writes
        value = bool(rec["v"]) if rec["t"] == "v" else rec["i"]
        assert fast_record(raw) == (rec["t"], rec["k"], value)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(store_lines(), max_size=12))
    def test_store_load_matches_decoding_every_line(self, lines):
        raw = b"\n".join(lines) + b"\n"
        verdicts, counterexamples, corrupt = {}, {}, 0
        for rec in decode_lines(raw):
            if rec is None:
                corrupt += 1
            elif rec.get("t") == "v" and "k" in rec and "v" in rec:
                verdicts[rec["k"]] = bool(rec["v"])
            elif rec.get("t") == "c" and "k" in rec and "i" in rec:
                bucket = counterexamples.setdefault(rec["k"], [])
                if rec["i"] not in bucket:
                    bucket.append(rec["i"])
            else:
                corrupt += 1
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / CACHE_FILE_NAME
            path.write_bytes(raw)
            store = DiskStore(path)
            assert store.corrupt_lines == corrupt
            assert store._verdicts == verdicts
            assert store._counterexamples == counterexamples
            assert (store.quarantined is not None) == (corrupt > 0)


class TestStoreLifetime:
    def test_compile_leaves_no_store_alive_and_everything_on_disk(
        self, tmp_path
    ):
        from repro.pipeline import compile_pipeline
        from repro.synthesis.stats import SynthesisStats
        from repro.workloads.base import get

        compile_pipeline(get("mul").build(), backend="rake",
                         cache_dir=str(tmp_path))
        gc.collect()
        live = [o for o in gc.get_objects()
                if isinstance(o, DiskStore) and o.path.parent == tmp_path]
        assert live == []
        warm = SynthesisStats()
        compile_pipeline(get("mul").build(), backend="rake", stats=warm,
                         cache_dir=str(tmp_path))
        assert warm.total_cache_misses == 0
        assert warm.total_cache_hits > 0

    def test_dropped_store_flushes_pending_records(self, tmp_path):
        path = tmp_path / CACHE_FILE_NAME
        store = DiskStore(path)
        store.put_verdict("k", True)
        del store
        gc.collect()
        assert DiskStore(path).get_verdict("k") is True

    def test_exit_flush_reaches_open_stores(self, tmp_path):
        path = tmp_path / CACHE_FILE_NAME
        store = DiskStore(path)
        store.add_counterexample("s", 3)
        assert store in engine._LIVE_STORES
        engine._flush_live_stores()
        assert DiskStore(path).counterexample_indices("s") == [3]
