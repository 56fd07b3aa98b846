"""Test-input generation for the equivalence oracle.

The oracle replaces Rosette/z3 verification with differential testing over
a bank of valuations (see DESIGN.md, substitution 1).  A valuation binds
every buffer and scalar variable an expression reads.  The bank mixes:

* boundary values that trigger wrap-around and saturation (0, 1, type
  min/max, alternating extremes),
* structured ramps that expose lane permutation mistakes (every lane value
  distinct — a swizzle error cannot cancel out), and
* seeded pseudo-random values.

Buffers are padded generously around the live range so candidate
implementations may read data the specification does not (e.g. a vtmpy
window or an aligned-load pair spanning the neighbourhood).

An environment is a pure function of its shapes, style and seed: one
NumPy ``Generator`` per environment, seeded with ``crc32(style) ^ seed``,
fills each buffer as a single array of the element's own dtype.  Banks
are therefore identical in every process, and the batched oracle stacks
them into int64 matrices without touching elements one by one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..ir import expr as ir_expr
from ..ir import traversal
from ..ir.interp import BufferView, Environment
from ..types import ScalarType

#: extra elements materialized on each side of the live range
PAD_ELEMENTS = 512


@dataclass(frozen=True)
class BufferSpec:
    """Shape of one buffer a specification reads."""

    name: str
    elem: ScalarType
    lo: int  # inclusive, elements relative to the tile origin
    hi: int  # exclusive


def buffer_specs_of(spec: ir_expr.Expr) -> list[BufferSpec]:
    """Buffer shapes read by an IR expression."""
    out: dict[str, BufferSpec] = {}
    for ld in traversal.loads_of(spec):
        cur = out.get(ld.buffer)
        lo, hi = ld.offset, ld.offset + ld.extent
        if cur is None:
            out[ld.buffer] = BufferSpec(ld.buffer, ld.elem, lo, hi)
        else:
            out[ld.buffer] = BufferSpec(
                ld.buffer, cur.elem, min(cur.lo, lo), max(cur.hi, hi)
            )
    return sorted(out.values(), key=lambda b: b.name)


def uber_buffer_specs(spec) -> list[BufferSpec]:
    """Buffer shapes read by an uber expression.

    Includes scalar loads hidden inside broadcast operands (a reduction's
    loop-invariant factor, e.g. ``x64(i32(A[k]))``).
    """
    from ..uber import instructions as U

    out: dict[str, BufferSpec] = {}

    def add(buffer: str, elem: ScalarType, lo: int, hi: int) -> None:
        cur = out.get(buffer)
        if cur is None:
            out[buffer] = BufferSpec(buffer, elem, lo, hi)
        else:
            out[buffer] = BufferSpec(
                buffer, cur.elem, min(cur.lo, lo), max(cur.hi, hi)
            )

    for node in spec:
        if isinstance(node, U.LoadData):
            add(node.buffer, node.elem, node.offset, node.offset + node.extent)
        elif isinstance(node, U.BroadcastScalar):
            for sub in node.scalar:
                if isinstance(sub, ir_expr.Load):
                    add(sub.buffer, sub.elem, sub.offset,
                        sub.offset + sub.extent)
    return sorted(out.values(), key=lambda b: b.name)


def scalar_names_of(spec) -> list[tuple[str, ScalarType]]:
    """Free scalar variables of an IR or uber expression (incl. broadcasts)."""
    from ..uber import instructions as U

    seen: dict[str, ScalarType] = {}
    for node in spec:
        scalar = None
        if isinstance(node, ir_expr.ScalarVar):
            scalar = node
        elif isinstance(node, (U.BroadcastScalar,)) or (
            hasattr(node, "scalar") and isinstance(
                getattr(node, "scalar", None), ir_expr.Expr)
        ):
            for sub in getattr(node, "scalar"):
                if isinstance(sub, ir_expr.ScalarVar):
                    seen.setdefault(sub.name, sub.dtype)
            continue
        if scalar is not None:
            seen.setdefault(scalar.name, scalar.dtype)
    return sorted(seen.items())


def _array_dtype(elem: ScalarType) -> np.dtype:
    """The NumPy dtype of ``elem`` itself (``uint8`` for u8, …): it holds
    every value exactly, u64 included, in the least memory."""
    return np.dtype(f"{'i' if elem.signed else 'u'}{elem.bits // 8}")


def _fill(elem: ScalarType, n: int, style: str, rng: np.random.Generator):
    """``n`` values of ``elem`` in ``style`` as a 1-D array of its dtype."""
    lo, hi = elem.min_value, elem.max_value
    dtype = _array_dtype(elem)
    if style == "ramp":
        # Distinct small values per lane; offset keeps signed types happy.
        # The integer cast wraps exactly as ``elem.wrap`` does.
        return (np.arange(n, dtype=np.int64) * 3 + 1).astype(dtype)
    if style == "zeros":
        return np.zeros(n, dtype=dtype)
    if style == "ones":
        return np.ones(n, dtype=dtype)
    if style == "max":
        return np.full(n, hi, dtype=dtype)
    if style == "min":
        return np.full(n, lo, dtype=dtype)
    if style == "alternate":
        data = np.full(n, lo, dtype=dtype)
        data[1::2] = hi
        return data
    if style == "small_random":
        return rng.integers(0, min(15, hi), size=n, dtype=dtype, endpoint=True)
    return rng.integers(lo, hi, size=n, dtype=dtype, endpoint=True)


def _style_rng(style: str, seed: int) -> np.random.Generator:
    """The generator for one ``(style, seed)`` environment.

    ``zlib.crc32`` rather than ``hash``: str hashes are salted per process
    (``PYTHONHASHSEED``), and a bank must be the same in every process.
    The mask keeps a negative ``seed`` legal for ``default_rng``.
    """
    return np.random.default_rng(
        (zlib.crc32(style.encode()) ^ seed) & 0xFFFF_FFFF_FFFF_FFFF
    )


#: bank order: the ramp goes first because it catches swizzle errors fastest
BASE_STYLES = ("ramp", "random", "alternate", "max", "small_random", "random")


#: environments memoized by exact shape — construction is deterministic in
#: (buffers, scalars, style, seed) and environments are treated as
#: read-only, so specs with identical read footprints share valuations
_ENV_CACHE: dict = {}


def make_environment(
    buffers: list[BufferSpec],
    scalars: list[tuple[str, ScalarType]],
    style: str,
    seed: int,
) -> Environment:
    """Build one valuation for the given buffer and scalar shapes.

    Each buffer is one NumPy row of the element's own dtype behind a
    ``prewrapped`` view: reads slice it, and ``bank_arrays`` stacks the
    rows of a bank with one cast to int64 — no per-element Python work.
    """
    key = (tuple(buffers), tuple(scalars), style, seed)
    cached = _ENV_CACHE.get(key)
    if cached is not None:
        return cached
    rng = _style_rng(style, seed)
    views: dict[str, BufferView] = {}
    for spec in buffers:
        length = (spec.hi - spec.lo) + 2 * PAD_ELEMENTS
        views[spec.name] = BufferView(
            data=_fill(spec.elem, length, style, rng), elem=spec.elem,
            origin=PAD_ELEMENTS - spec.lo, prewrapped=True,
        )
    scalar_vals = {}
    for name, dtype in scalars:
        if style in ("max", "min"):
            scalar_vals[name] = dtype.max_value if style == "max" else dtype.min_value
        elif style in ("zeros",):
            scalar_vals[name] = 0
        elif style in ("ones",):
            scalar_vals[name] = 1
        else:
            scalar_vals[name] = int(rng.integers(
                dtype.min_value, dtype.max_value, dtype=_array_dtype(dtype),
                endpoint=True,
            ))
    env = Environment(buffers=views, scalars=scalar_vals)
    _ENV_CACHE[key] = env
    return env


def build_bank(
    buffers: list[BufferSpec],
    scalars: list[tuple[str, ScalarType]],
    n_random_extra: int,
    seed: int,
) -> list[Environment]:
    """The standard bank for explicit shapes: :data:`BASE_STYLES`, then
    ``n_random_extra`` extra random rounds.  The one definition of bank
    order, shared by the oracle and the cross-ISA differential check."""
    envs = [
        make_environment(buffers, scalars, style, seed + i)
        for i, style in enumerate(BASE_STYLES)
    ]
    for i in range(n_random_extra):
        envs.append(make_environment(buffers, scalars, "random", seed + 100 + i))
    return envs


def _spec_shapes(spec):
    if isinstance(spec, ir_expr.Expr):
        buffers = buffer_specs_of(spec)
    else:
        buffers = uber_buffer_specs(spec)
    return buffers, scalar_names_of(spec)


def environment_bank(spec, n_random_extra: int = 2, seed: int = 0) -> list[Environment]:
    """The standard valuation bank for a specification expression.

    Works for both IR and uber expressions.
    """
    buffers, scalars = _spec_shapes(spec)
    return build_bank(buffers, scalars, n_random_extra, seed)


def environment_zero(spec, seed: int = 0) -> Environment:
    """Just the first environment of :func:`environment_bank`.

    ``make_environment`` derives its RNG from ``(style, seed)`` alone, so
    this is byte-identical to ``environment_bank(spec, seed=seed)[0]``
    without paying for the other environments — the oracle's lane-0 pruning
    path uses it to avoid full bank construction.
    """
    buffers, scalars = _spec_shapes(spec)
    return make_environment(buffers, scalars, BASE_STYLES[0], seed)


def bank_arrays(bank: list[Environment]):
    """Materialize a valuation bank as a :class:`repro.eval.BankData`.

    Bank rows are already NumPy arrays, so each buffer is one ``np.stack``.
    Returns ``None`` when the bank cannot be stacked exactly (mismatched
    shapes across environments, views not built by :func:`make_environment`,
    or values that do not fit int64, e.g. u64 buffers) — callers then keep
    the scalar path, which is always exact.
    """
    from ..eval import plan as _plan

    if not bank:
        return None
    first = bank[0]
    buffers: dict = {}
    try:
        for name, view0 in first.buffers.items():
            views = [env.buffers[name] for env in bank]
            elem, origin, length = view0.elem, view0.origin, len(view0.data)
            if any(
                v.elem != elem or v.origin != origin or len(v.data) != length
                or not v.prewrapped
                for v in views
            ):
                return None
            if elem.bits > 63 and not elem.signed:
                return None  # u64 contents may not fit int64
            buffers[name] = (
                np.stack([v.data for v in views]).astype(np.int64, copy=False),
                elem, origin,
            )
        scalars: dict = {}
        for name in first.scalars:
            vals = [env.scalars[name] for env in bank]
            if any(
                not (_plan.INT64_MIN <= v <= _plan.INT64_MAX) for v in vals
            ):
                return None
            scalars[name] = np.array(vals, dtype=np.int64)
    except KeyError:
        return None
    return _plan.BankData(
        n_envs=len(bank), envs=list(bank), buffers=buffers, scalars=scalars
    )
