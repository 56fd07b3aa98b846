"""Correctness of selected code, checked without the synthesizer.

Rake's own verifier tests candidates on valuation banks built by
``repro.synthesis.valuation``.  This check shares none of that: it builds
its input environments here, from the benchmark's seed, evaluates each
selected machine program with ``TargetDescription.interp`` and compares
its lane bit patterns with ``repro.ir.interp.evaluate_vector`` on the
source expression.  Listings of the selected programs are compared with
the pinned references in ``reference_listings.json``.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference_listings.json")

#: elements materialized on each side of a buffer's live range; selected
#: programs may read past the spec's footprint (aligned pairs, windows)
PAD = 512

#: input styles, one environment each: uniform values, small values and
#: boundary values (each element at its type's minimum or maximum)
STYLES = ("uniform", "uniform", "small", "extremes")


def _footprint(expr):
    """Buffer spans ``{name: [elem, lo, hi]}`` and scalars an IR expr reads."""
    from repro.ir import expr as E

    buffers: dict = {}
    scalars: dict = {}
    for node in expr:
        if isinstance(node, E.Load):
            lo = node.offset
            hi = node.offset + (node.lanes - 1) * node.stride + 1
            cur = buffers.get(node.buffer)
            if cur is None:
                buffers[node.buffer] = [node.elem, lo, hi]
            else:
                cur[1], cur[2] = min(cur[1], lo), max(cur[2], hi)
        elif isinstance(node, E.ScalarVar):
            scalars.setdefault(node.name, node.dtype)
    return buffers, scalars


def _values(rng, elem, n, style):
    lo, hi = elem.min_value, elem.max_value
    if style == "small":
        return [rng.randint(0, min(15, hi)) for _ in range(n)]
    if style == "extremes":
        return [hi if rng.getrandbits(1) else lo for _ in range(n)]
    return [rng.randint(lo, hi) for _ in range(n)]


def environments(expr, seed_text: str) -> list:
    """Input environments for ``expr``, a function of ``seed_text`` only.

    ``random.Random`` seeded with a string hashes it with SHA-512, so the
    inputs do not depend on the process hash seed.
    """
    from repro.ir.interp import BufferView, Environment

    buffers, scalars = _footprint(expr)
    envs = []
    for index, style in enumerate(STYLES):
        rng = random.Random(f"{seed_text}|{index}")
        views = {}
        for name in sorted(buffers):
            elem, lo, hi = buffers[name]
            views[name] = BufferView(
                data=_values(rng, elem, hi - lo + 2 * PAD, style),
                elem=elem, origin=PAD - lo,
            )
        scalar_vals = {name: _values(rng, dtype, 1, style)[0]
                       for name, dtype in sorted(scalars.items())}
        envs.append(Environment(buffers=views, scalars=scalar_vals))
    return envs


def _ir_bits(expr, env) -> tuple:
    from repro.ir import expr as E
    from repro.ir.interp import evaluate_vector

    mask = (1 << E.elem_of(expr.type).bits) - 1
    return tuple(v & mask for v in evaluate_vector(expr, env))


def _machine_bits(target, program, env) -> tuple:
    from repro.targets.nodes import PredVec

    value = target.interp(program, env)
    if isinstance(value, PredVec):
        return tuple(int(v) & 1 for v in value.values)
    mask = (1 << value.elem.bits) - 1
    return tuple(v & mask for v in value.values)


def mismatches(target, expr, program, seed_text: str) -> int:
    """Environments on which ``program`` disagrees with ``expr``.

    An evaluation error in either interpreter counts as a disagreement.
    """
    from repro.errors import ReproError

    bad = 0
    for env in environments(expr, seed_text):
        try:
            same = _ir_bits(expr, env) == _machine_bits(target, program, env)
        except ReproError:
            same = False
        bad += not same
    return bad


def listing_entry(stage: str, selector: str, text) -> str:
    """One selected program as stable text (service results use it too)."""
    if not isinstance(text, str):
        text = "\n".join(text)
    return f"{stage} [{selector}]\n{text}"


def listing(target, compiled) -> list:
    """The selected programs of one compile, trivial expressions left out
    as in the service's results."""
    return [listing_entry(cstage.name, cexpr.selector,
                          target.listing(cexpr.program))
            for cstage in compiled.stages for cexpr in cstage.exprs
            if cexpr.selector != "trivial"]


def load_reference() -> dict:
    """Pinned listings keyed ``<target>/<workload>``."""
    return json.loads(REFERENCE.read_text())


def mutate(program):
    """``program`` with every vector load moved by one element, so it
    computes its neighbour's output.

    Returns ``None`` when the program loads nothing.  The self-test feeds
    the result to :func:`mismatches`, which must report it.  (Moving a
    single load is not enough: it may sit in a half of a register pair
    that the program discards.)
    """
    from repro.targets.nodes import HvxLoad

    memo: dict = {}

    def rewrite(node):
        if node in memo:
            return memo[node]
        if isinstance(node, HvxLoad):
            new = dataclasses.replace(node, offset=node.offset + 1)
        else:
            changes = {}
            for field in dataclasses.fields(node):
                value = getattr(node, field.name)
                if isinstance(value, tuple) and any(
                        dataclasses.is_dataclass(v) for v in value):
                    items = tuple(rewrite(v) if dataclasses.is_dataclass(v)
                                  else v for v in value)
                    if items != value:
                        changes[field.name] = items
            new = dataclasses.replace(node, **changes) if changes else node
        memo[node] = new
        return new

    new = rewrite(program)
    return None if new == program else new
