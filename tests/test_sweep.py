"""The seed sweeps: the property suite over 1000 generated instances and
over benchmark-recipe instances of dimension 24 and 48, and the compiled
apply against the reference path over 300.

Marked ``slow`` (tens of seconds together) and deselected by default; run
them with

    PYTHONPATH=src python -m pytest -m slow
"""

import numpy as np
import pytest

from kreincalc import (
    CalculusContext, CalculusFunction, KreinCalcError, generate, parse_instance, run_suite
)
from kreincalc.tol import fro

from calculus_reference import reference_apply
from conftest import load_recipe

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


@pytest.mark.slow
@pytest.mark.parametrize("n", [24, 48])
def test_suite_passes_on_recipe_instances_above_12(n):
    recipe = load_recipe()
    failing = []
    for s in range(5):
        report = run_suite(parse_instance(recipe.instance(s, n, 2)[0]))
        if not report.passed:
            failing.append((s, [p.name for p in report.properties if not p.passed]))
    assert failing == []


@pytest.mark.slow
def test_compiled_apply_matches_reference_on_300_seeds():
    """apply against the reference path of calculus_reference
    (interpolant + remainder + s(A, B) over monomial powers + the checked
    expand), to 1e-10 relative, on a random function and 1."""
    failing = []
    for i in range(300):
        ctx = CalculusContext.build(generate(i, 2 + i % 11, PROFILES[i % 3]).pair)
        rng = np.random.default_rng(i)
        size = ctx.layout.size
        coords = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        for fn in (CalculusFunction(ctx.cs, coords), ctx.one()):
            ref = reference_apply(ctx, fn)
            rel = fro(ctx.apply(fn) - ref) / max(1.0, fro(ref))
            if not rel <= 1e-10:
                failing.append((i, rel))
    assert failing == []
