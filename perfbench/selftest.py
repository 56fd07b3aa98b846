"""Self-tests of the benchmark's own guards.

Each test shows that a guard catches the defect it exists for:

* ``isolation``: a compile leaves the compiler's process-wide memos
  populated, a second cold compile in the same interpreter then builds
  fewer valuation environments, and ``worker.isolation_problems`` reports
  the populated memos.  This is why every suite runs in a fresh
  interpreter.
* ``mutation``: the independent check passes the selected programs and
  reports each one with a load moved by one element.
* ``coverage``: every wrapped name resolves, wrapping records calls, and
  ``layers.missing_layers`` reports a layer that recorded none.

Usage::

    python3 perfbench/selftest.py
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402

#: small workloads, one per target, that select Rake programs
CASES = (("hvx", "mul"), ("neon", "add"), ("hvx", "dilate3x3"))


def _compile(target, name, cache_dir):
    import repro.workloads
    from repro.pipeline import compile_pipeline

    return compile_pipeline(repro.workloads.get(name).build(),
                            target=target, cache_dir=cache_dir)


def test_isolation(tmp: Path) -> list:
    from repro.synthesis import valuation

    errors = []
    if worker.isolation_problems():
        errors.append("memos populated before any compile")
    built = []
    for run in range(2):
        before = len(valuation._ENV_CACHE)
        _compile("hvx", "dilate3x3", str(tmp / f"cold{run}"))
        built.append(len(valuation._ENV_CACHE) - before)
    if not built[0] or built[1] >= built[0]:
        errors.append(f"second in-process cold compile was not warmer: "
                      f"built {built} environments")
    if not worker.isolation_problems():
        errors.append("isolation guard missed populated memos")
    return errors


def test_mutation(tmp: Path) -> list:
    from repro.targets import get_target

    errors = []
    for target_name, name in CASES:
        target = get_target(target_name)
        compiled = _compile(target_name, name, str(tmp / "mut"))
        mutated = 0
        for cstage in compiled.stages:
            for i, cexpr in enumerate(cstage.exprs):
                seed_text = f"selftest|{target_name}/{name}|{i}"
                if check.mismatches(target, cexpr.source, cexpr.program,
                                    seed_text):
                    errors.append(f"{target_name}/{name}: selected program "
                                  f"reported as wrong")
                mutant = check.mutate(cexpr.program)
                if mutant is None:
                    continue
                mutated += 1
                if not check.mismatches(target, cexpr.source, mutant,
                                        seed_text):
                    errors.append(f"{target_name}/{name}: mutated program "
                                  f"passed the check")
        if not mutated:
            errors.append(f"{target_name}/{name}: nothing to mutate")
    return errors


def test_coverage(tmp: Path) -> list:
    import repro.pipeline

    errors = []
    original = repro.pipeline.lower_pipeline
    recorder = layers.Recorder()
    recorder.install()
    try:
        _compile("hvx", "mul", str(tmp / "cov"))
    finally:
        recorder.uninstall()
    if repro.pipeline.lower_pipeline is not original:
        errors.append("uninstall did not restore the wrapped names")
    summary = recorder.summary()
    for name in ("frontend.lower_pipeline", "oracle.equivalent",
                 "engine.store_load", "lifting.lift"):
        if not summary.get(name, {}).get("calls"):
            errors.append(f"wrapper {name} recorded no call")
    if "rules.match" not in layers.missing_layers(layers.RULES, summary):
        errors.append("coverage guard missed a layer with no calls")
    return errors


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for test in (test_isolation, test_mutation, test_coverage):
            errors = test(Path(tmp))
            failed |= bool(errors)
            print(f"{test.__name__}: {'FAIL' if errors else 'ok'}")
            for error in errors:
                print(f"  {error}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
