"""Valuation banks are a pure function of (spec, seed).

Verdict-store counterexamples are bank *indices*, the cluster cache tier
shares verdicts between processes, and fault replays promise "same seed,
same run" — all of which assume every process builds the same bank.  Str
hashes are salted per process (``PYTHONHASHSEED``), so a bank seeded from
``hash(style)`` silently differed between processes; these tests pin the
hash-seed independence and the exact paths for 64-bit buffers.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ir import builder as B
from repro.ir import evaluate
from repro.synthesis import valuation
from repro.types import I8, I16, I64, U8, U64

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: workloads covering u8/u16/i32 buffers and u8/i32 scalar variables
WORKLOADS = ("add", "l2norm", "gaussian3x3", "camera_pipe")


def wide_spec():
    """Reads a u64 and an i64 buffer plus a u64 scalar: no int64 matrix
    holds the u64 values, so these must stay on the exact scalar path."""
    u = B.load("wide_u", 0, 8, U64)
    i = B.load("wide_i", -3, 8, I64)
    return B.add(B.add(B.cast(I64, u), i), B.cast(I64, B.var("k", U64)))


def workload_specs():
    import repro.workloads
    from repro.frontend.lowering import lower_pipeline

    specs = []
    for name in WORKLOADS:
        low = lower_pipeline(repro.workloads.get(name).build(), lanes=128)
        specs.extend(e for stage in low.stages for e in stage.exprs)
    return specs


def bank_digest(specs) -> str:
    """SHA-256 over every buffer row (dtype, origin, bytes) and scalar."""
    h = hashlib.sha256()
    for spec in specs:
        for env in valuation.environment_bank(spec):
            for name in sorted(env.buffers):
                view = env.buffers[name]
                row = np.asarray(view.data)
                h.update(f"{name}:{view.elem}:{view.origin}:{row.dtype}:"
                         .encode())
                h.update(row.tobytes())
            h.update(repr(sorted(env.scalars.items())).encode())
    return h.hexdigest()


_DIGEST_SCRIPT = """
import sys
sys.path.insert(0, {tests!r})
import test_valuation_determinism as t
print(t.bank_digest(t.workload_specs() + [t.wide_spec()]))
"""


def _digest_under_hash_seed(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    script = _DIGEST_SCRIPT.format(tests=str(Path(__file__).parent))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def test_bank_identical_across_hash_seeds():
    digests = {seed: _digest_under_hash_seed(seed) for seed in ("0", "1", "2")}
    assert len(set(digests.values())) == 1, digests


def whole(view) -> tuple:
    """Every element of a view, padding included, through ``read``."""
    return view.read(-view.origin, len(view.data))


def _fresh_cache(monkeypatch):
    monkeypatch.setattr(valuation, "_ENV_CACHE", {})


@pytest.mark.parametrize("spec", workload_specs() + [wide_spec()],
                         ids=lambda s: type(s).__name__)
def test_environment_zero_is_bank_head(spec, monkeypatch):
    # Separate caches so the comparison is between two constructions,
    # not one memoized object.
    _fresh_cache(monkeypatch)
    env0 = valuation.environment_zero(spec)
    _fresh_cache(monkeypatch)
    head = valuation.environment_bank(spec)[0]
    assert env0 is not head
    assert env0.scalars == head.scalars
    assert env0.buffers.keys() == head.buffers.keys()
    for name, view in env0.buffers.items():
        other = head.buffers[name]
        assert (view.elem, view.origin) == (other.elem, other.origin)
        assert whole(view) == whole(other)


def test_u64_and_i64_buffers_stay_exact():
    spec = wide_spec()
    bank = valuation.environment_bank(spec)
    u_vals = [v for env in bank for v in whole(env.buffer("wide_u"))]
    i_vals = [v for env in bank for v in whole(env.buffer("wide_i"))]
    assert all(type(v) is int for v in u_vals + i_vals)
    assert all(0 <= v <= U64.max_value for v in u_vals)
    assert all(I64.min_value <= v <= I64.max_value for v in i_vals)
    # the boundary styles reach both ends, beyond what int64 holds for u64
    assert U64.max_value in u_vals and 0 in u_vals
    assert I64.max_value in i_vals and I64.min_value in i_vals
    assert any(v > I64.max_value for v in u_vals)  # random u64 draws
    scalars = [env.scalar("k") for env in bank]
    assert all(type(v) is int and 0 <= v <= U64.max_value for v in scalars)
    # u64 cannot be stacked as int64: the batched path declines the bank
    assert valuation.bank_arrays(bank) is None
    # the scalar interpreter computes exact wrapped i64 sums
    for env in bank:
        u = env.buffer("wide_u").read(0, 8)
        i = env.buffer("wide_i").read(-3, 8)
        k = I64.wrap(env.scalar("k"))
        assert evaluate(spec, env) == tuple(
            I64.wrap(I64.wrap(I64.wrap(a) + b) + k) for a, b in zip(u, i)
        )


def test_i64_buffer_stacks_exactly():
    spec = B.add(B.load("wide_i", 0, 8, I64), B.load("wide_i", 1, 8, I64))
    bank = valuation.environment_bank(spec)
    data = valuation.bank_arrays(bank)
    assert data is not None
    matrix, elem, origin = data.buffers["wide_i"]
    assert matrix.dtype == np.int64 and elem == I64
    for row, env in zip(matrix, bank):
        assert tuple(row.tolist()) == whole(env.buffer("wide_i"))


@pytest.mark.parametrize("elem", (U8, I8, I16, U64), ids=str)
def test_ramp_is_wrapped_lane_index(elem):
    (buf,) = valuation.buffer_specs_of(B.load("in", 0, 8, elem))
    ramp = whole(valuation.make_environment([buf], [], "ramp", 0).buffer("in"))
    assert ramp == tuple(elem.wrap(i * 3 + 1) for i in range(len(ramp)))


def test_alternate_style():
    (buf,) = valuation.buffer_specs_of(B.load("in", 0, 8, U8))
    alt = valuation.make_environment([buf], [], "alternate", 0).buffer("in")
    assert alt.read(0, 4) == (0, 255, 0, 255)
