"""The three benchmark workloads.

Each is a closed loop with one client: the next op starts when the previous
one has returned. ``prepare`` makes every input from the workload seed and
does the builds the workload keeps (it is timed as set-up and repeated),
``ops`` is the op list a run replays in order, ``run`` is one timed op, and
``check`` judges its output outside the timed section against references
that do not come from the code under test.

An op outcome is OK, REPORTED (the library raised one of its own errors or
returned a nonzero exit code) or SILENT (a wrong output returned as success,
or a crash with an exception the library does not designate).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

import kreincalc as kc
import kreincalc.cli
import recipe

OK, REPORTED, SILENT = "ok", "reported", "silent"
PROFILES = ("diagonal", "jordan", "pontryagin")


def fro(M) -> float:
    return float(np.linalg.norm(M, "fro"))


def projection_ok(P, N, expected_rank, spec) -> bool:
    """Idempotent, commuting with N, and of the rank the input fixes.

    Thresholds follow the property suite: relative to tol.spec and to the
    norms entering each identity.
    """
    s = max(1.0, fro(P))
    return (
        fro(P @ P - P) <= spec * s * s
        and fro(N @ P - P @ N) <= spec * s * max(1.0, fro(N))
        and abs(np.trace(P) - expected_rank) <= spec * s * s
    )


def _matrix(rows) -> np.ndarray:
    """The inverse of recipe.matrix_json."""
    a = np.asarray(rows)
    return a[..., 0] + 1j * a[..., 1]


def eig_count(eigs, inside) -> int:
    return int(sum(1 for z in eigs if inside(z)))


class CorpusVerify:
    """``kreincalc verify --format json`` through ``cli.main`` on many small
    generated instances, n = 2..12 and all three profiles cycled."""

    name = "corpus-verify"

    def __init__(self, seed: int, root: Path, smoke: bool):
        self.seed = seed
        self.count = 6 if smoke else 462
        self.warmup = 2 if smoke else 11
        self.workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=root))
        self.ops = []

    def prepare(self):
        seeds = np.random.default_rng(self.seed).integers(0, 2**31 - 1, size=self.count)
        ops = []
        for i, s in enumerate(seeds):
            inst = kc.generate(int(s), 2 + i % 11, PROFILES[i % 3])
            path = self.workdir / f"instance-{i:04d}.json"
            path.write_text(json.dumps(inst.to_json()))
            ops.append((str(path), self.workdir / f"report-{i:04d}.json"))
        self.ops = ops

    def before(self, op):
        op[1].unlink(missing_ok=True)

    def run(self, op):
        with contextlib.redirect_stderr(io.StringIO()):
            return kc.cli.main(
                ["verify", "--input", op[0], "--format", "json", "--output", str(op[1])]
            )

    def check(self, op, rc) -> str:
        if rc == 2:
            return REPORTED  # a designated library error, printed by the CLI
        try:
            props = json.loads(op[1].read_text())["properties"]
        except (OSError, ValueError, KeyError, TypeError):
            return SILENT
        failing = [p for p in props if p.get("pass") is False]
        if rc not in (0, 1) or not props or (rc == 1) != bool(failing):
            return SILENT  # exit code and report disagree
        return OK if rc == 0 else REPORTED

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class BuildScale:
    """parse_instance, CalculusContext.build and one spectral projection on
    large Pontryagin-signature instances, a fresh instance per op."""

    name = "build-scale"

    def __init__(self, seed: int, root: Path, smoke: bool):
        self.seed = seed
        self.n = 12 if smoke else 128
        self.count = 2 if smoke else 8
        self.warmup = 1 if smoke else 2
        self.ops = []

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        ops = []
        for s in rng.integers(0, 2**31 - 1, size=self.count):
            data, spectrum = recipe.instance(int(s), self.n)
            # a disk around a support point; centre and radius stay clear of
            # the lattice the spectrum lives on
            centre = complex(rng.choice(spectrum)) + recipe.STEP * (0.5 + 0.5j)
            radius = recipe.STEP * int(rng.integers(1, 3)) + 0.1
            N = _matrix(data["A"]) + 1j * _matrix(data["B"])
            rank = eig_count(spectrum, lambda z: abs(z - centre) <= radius)
            ops.append((json.dumps(data), centre, radius, N, rank))
        self.ops = ops

    def before(self, op):
        pass

    def run(self, op):
        text, centre, radius = op[:3]
        inst = kc.parse_instance(text)
        ctx = kc.CalculusContext.build(inst.pair)
        return ctx.tol.spec, ctx.spectral_projection(kc.Disk(centre, radius))

    def check(self, op, out) -> str:
        spec, P = out
        return OK if projection_ok(P, op[3], op[4], spec) else SILENT

    def close(self):
        pass


# interpolation-heavy contexts: Pontryagin signature, each of p, q carrying
# two positive quadratic factors, so 24 zero pairs appear (K about 55-75)
INTERP_SIZES = (32, 40, 48) * 2
QUADRATICS = 2
# integral-heavy contexts: no zero pairs and r = n - 1
INTEGRAL_SIZES = (128, 128)
ROUNDS = 8
SAMPLE_EVERY = 4  # rounds that also check one() -> I and multiplicativity


class ApplyMix:
    """Contexts built once; one op is a round applying a random table, a
    region indicator, a lifted bipoly and a Riesz delta at a critical point
    to every context."""

    name = "apply-mix"

    def __init__(self, seed: int, root: Path, smoke: bool):
        self.seed = seed
        self.interp = (12, 16) if smoke else INTERP_SIZES
        self.integral = (16,) if smoke else INTEGRAL_SIZES
        self.rounds = 4 if smoke else ROUNDS
        self.warmup = 1 if smoke else 2
        self.ops = []

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        datas = [recipe.instance(int(rng.integers(2**31 - 1)), n, QUADRATICS)[0]
                 for n in self.interp]
        datas += [recipe.instance(int(rng.integers(2**31 - 1)), n)[0] for n in self.integral]
        insts = [kc.parse_instance(d) for d in datas] + [self._deep_jordan(rng)]
        self.contexts = []
        for inst in insts:
            ctx = kc.CalculusContext.build(inst.pair)
            N = ctx.pair.A + 1j * ctx.pair.B
            self.contexts.append((ctx, ctx.pair.A, ctx.pair.B, N, np.linalg.eigvals(N)))
        self.ops = [(i, self._round(rng)) for i in range(self.rounds)]

    @staticmethod
    def _deep_jordan(rng):
        """generate(..., "jordan") whose nilpotent cell carries p = z^2 * ...,
        so the critical point at the origin has deep jets."""
        while True:
            inst = kc.generate(int(rng.integers(2**31 - 1)), 12, "jordan")
            if not np.any(inst.pair.p.coeffs[:2]):
                return inst

    def _round(self, rng):
        """Per context: table dict, region, bipoly dict, critical point."""
        specs = []
        for ctx, *_ in self.contexts:
            cs = ctx.cs
            crit = [c.value for c in cs.crit]
            specs.append((
                _table(rng, cs),
                _region(rng, cs),
                {"kind": "bipoly", "coeffs": _bipoly_rows(rng)},
                complex(crit[rng.integers(len(crit))]) if crit else None,
            ))
        return specs

    def before(self, op):
        pass

    def run(self, op):
        outs = []
        for (ctx, *_), (table, region, bipoly, crit) in zip(self.contexts, op[1]):
            outs.append((
                ctx.apply(kc.function_from_dict(ctx, table)),
                ctx.apply(kc.function_from_dict(ctx, {"kind": "indicator", "region": region})),
                ctx.apply(kc.function_from_dict(ctx, bipoly)),
                None if crit is None else ctx.riesz_projection(crit),
            ))
        return outs

    def check(self, op, outs) -> str:
        for (ctx, A, B, N, eigs), spec, out in zip(self.contexts, op[1], outs):
            table, region, bipoly, crit = spec
            table_n, ind_n, poly_n, riesz_n = out
            tol = ctx.tol.spec
            ref = _bipoly_at(bipoly["coeffs"], A, B)
            if fro(poly_n - ref) > tol * max(1.0, fro(ref)):
                return SILENT
            if not projection_ok(ind_n, N, eig_count(eigs, _contains(region)), tol):
                return SILENT
            if riesz_n is not None and not projection_ok(
                riesz_n, N, eig_count(eigs, lambda z: abs(z - crit) < 0.1), tol
            ):
                return SILENT
            if op[0] % SAMPLE_EVERY == 0:
                one = ctx.apply(ctx.one())
                if fro(one - np.eye(len(N))) > tol:
                    return SILENT
                product = ctx.apply(
                    kc.function_from_dict(ctx, table) * kc.function_from_dict(ctx, bipoly)
                )
                scale = (1.0 + fro(table_n)) * (1.0 + fro(poly_n))
                if fro(product - table_n @ poly_n) > tol * scale:
                    return SILENT
        return OK

    def close(self):
        pass


def _complex_pair(rng):
    v = rng.standard_normal(2)
    return [float(v[0]), float(v[1])]


def _jet_dict(rng, shape):
    return {
        "m": shape.m,
        "n": shape.n,
        "kind": shape.kind,
        "entries": [[k, l, *_complex_pair(rng)] for k, l in shape.indices],
    }


def _table(rng, cs) -> dict:
    return {
        "kind": "table",
        "values": [
            {"z": [z.real, z.imag], "value": _complex_pair(rng)} for z in cs.noncritical
        ],
        "crit": [
            {"z": [c.value.real, c.value.imag], "jet": _jet_dict(rng, c.shape)}
            for c in cs.crit
        ],
        "zi": [
            {
                "zw": [[pt.zw[0].real, pt.zw[0].imag], [pt.zw[1].real, pt.zw[1].imag]],
                "jet": _jet_dict(rng, pt.shape),
            }
            for pt in cs.zi
        ],
    }


def _region(rng, cs) -> dict:
    """A disk or rectangle near a noncritical point whose boundary stays at
    least 1e-3 away from every lattice point (see recipe.LATTICE)."""
    pts = list(cs.noncritical) or [0j]
    z = complex(pts[rng.integers(len(pts))])
    z = complex(round(z.real / recipe.STEP), round(z.imag / recipe.STEP)) * recipe.STEP
    corner = z + recipe.STEP * (0.5 + 0.5j)
    if rng.integers(2):
        return {
            "type": "disk",
            "center": [corner.real, corner.imag],
            "radius": recipe.STEP * int(rng.integers(1, 4)) + 0.1,
        }
    w, h = recipe.STEP * rng.integers(1, 4, size=2)
    return {
        "type": "rect",
        "x": [float(corner.real - w), corner.real],
        "y": [float(corner.imag - h), corner.imag],
    }


def _contains(region):
    if region["type"] == "disk":
        c = complex(*region["center"])
        return lambda z: abs(z - c) <= region["radius"]
    (x0, x1), (y0, y1) = region["x"], region["y"]
    return lambda z: x0 <= z.real <= x1 and y0 <= z.imag <= y1


def _bipoly_rows(rng, degree=2):
    return [[k, l, *_complex_pair(rng)] for k in range(degree + 1) for l in range(degree + 1)]


def _bipoly_at(rows, A, B) -> np.ndarray:
    """sum c_kl A^k B^l by plain matrix powers (A and B commute)."""
    n = A.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for k, l, re, im in rows:
        out += complex(re, im) * np.linalg.matrix_power(A, k) @ np.linalg.matrix_power(B, l)
    return out


WORKLOADS = {w.name: w for w in (CorpusVerify, BuildScale, ApplyMix)}
