"""Tests of the benchmark's own code: the instance recipe and smoke runs.

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import kreincalc as kc  # noqa: E402
import recipe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# units of metrics that are counts, not measurements: they repeat exactly
COUNT_UNITS = {"count", "count/op", "B/op"}


@pytest.mark.parametrize("n, quadratics", [(2, 0), (12, 0), (64, 0), (6, 2), (40, 2)])
def test_recipe_inputs_validate_and_repeat(n, quadratics):
    for seed in range(3):
        data, spectrum = recipe.instance(seed, n, quadratics)
        inst = kc.parse_instance(data)  # raises unless the input validates
        again = kc.parse_instance(recipe.instance(seed, n, quadratics)[0])
        assert inst.digest() == again.digest()
        eigs = np.sort_complex(np.round(np.linalg.eigvals(inst.N), 6))
        assert np.allclose(eigs, np.sort_complex(spectrum), atol=1e-6)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_and_repeats_counts(workload, trace):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    results = []
    for _ in range(2):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(
                line.startswith(f"{name} ") and line.split()[2] == unit for line in lines[:-1]
            ), name
        results.append(result)
    first, second = results
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    for name, unit in expected.items():
        if unit in COUNT_UNITS:
            assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
