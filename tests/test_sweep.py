"""The seed sweep: the property suite over 1000 generated instances.

Marked ``slow`` (about 40 s) and deselected by default; run it with

    PYTHONPATH=src python -m pytest -m slow
"""

import pytest

from kreincalc import KreinCalcError, generate, run_suite

PROFILES = ("diagonal", "jordan", "pontryagin")


@pytest.mark.slow
def test_suite_passes_on_1000_generated_instances():
    failing = []
    for i in range(1000):
        inst = generate(i, 2 + i % 11, PROFILES[i % 3])
        try:
            report = run_suite(inst)
        except KreinCalcError as exc:
            failing.append((i, type(exc).__name__, str(exc)))
            continue
        if not report.passed:
            failing.append((i, [p.name for p in report.properties if not p.passed]))
    assert failing == []
