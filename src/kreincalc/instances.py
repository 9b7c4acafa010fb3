"""Instance files, parsing with validation, and seeded random generation.

Matrices are stored row-major as nested arrays of [re, im] pairs so fixtures
stay diffable. An instance provides the Gram matrix, either the normal
operator or its two commuting selfadjoint parts, optional definitizing
polynomials (searched when absent), and optional tolerance overrides.

Instance, function and region files are read with ``orjson`` (``load_json``);
instance files are written, and digested, with the standard ``json`` module,
whose ``sort_keys``/``indent`` output fixes their bytes. A matrix is packed
from its decoded lists by one ``struct`` call (``matrix_from_json``), with the
entrywise ``complex(re, im)`` decode behind it for every input the packed
path refuses, so each malformed input keeps its message. ``parse_instance``
keeps the cyclic collector paused from the read until the matrices are
converted and the decoded lists freed: they hold no reference cycles, and a
collection would traverse them for nothing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import orjson
import scipy.linalg

from .bipoly import RealPoly
from .errors import ValidationError
from .krein import DefinitizablePair, KreinSpace, split_normal
from .tol import DEFAULT_TOL, fro, norm2

PROFILES = ("diagonal", "jordan", "pontryagin")


def matrix_to_json(M) -> list:
    """Rows of ``[re, im]`` pairs of Python floats."""
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def matrix_from_json(rows, name: str) -> np.ndarray:
    """The complex matrix of rows of ``[re, im]`` pairs of real numbers.

    A list of equal rows of pairs packs into the matrix with one
    ``struct.pack_into`` call. ``struct`` takes only real numbers (not
    ``str``, ``bytes``, ``None`` or ``complex``), and every warning it would
    raise is an error here, so a numpy complex scalar is not packed as its
    real part. Whatever the packed path refuses goes through the entrywise
    ``complex(re, im)`` decode, which yields the same matrix or raises
    :class:`ValidationError` with the message for the fault.
    """
    M = _packed_matrix(rows)
    if M is None:
        try:
            M = np.array(
                [[complex(re, im) for re, im in row] for row in rows], dtype=complex
            )
        except OverflowError as exc:
            raise ValidationError(f"matrix {name!r} has an entry that is not a finite number") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"matrix {name!r} is not an array of [re, im] pairs") from exc
    if M.ndim != 2:
        raise ValidationError(f"matrix {name!r} must be two-dimensional")
    if not np.isfinite(M).all():
        raise ValidationError(f"matrix {name!r} has an entry that is not a finite number")
    return M


def _packed_matrix(rows):
    """:func:`matrix_from_json` in one C call, or None for input that is not
    a list of equal rows of pairs or holds an entry ``struct`` refuses."""
    if not isinstance(rows, list):
        return None
    try:
        widths = set(map(len, rows))
        pairs = set(map(len, chain.from_iterable(rows)))
    except TypeError:
        return None
    if len(widths) != 1 or pairs != {2}:
        return None
    M = np.empty((len(rows), widths.pop()), dtype=complex)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            struct.pack_into(
                f"{2 * M.size}d", M, 0, *chain.from_iterable(chain.from_iterable(rows))
            )
    except struct.error:
        return None
    return M


@contextmanager
def _collector_paused():
    # Decoded lists and dicts hold no reference cycles, so the collections
    # their allocation would trigger traverse the heap and free nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_json(source):
    """Decode inline JSON text (it starts with ``{``) or the JSON file at a path.

    Raises ``OSError`` when the file cannot be read and ``ValueError`` when
    the text is not JSON, which includes the ``NaN`` and ``Infinity``
    literals and numbers beyond the float range.
    """
    text = str(source)
    raw = text if text.lstrip().startswith("{") else Path(source).read_bytes()
    with _collector_paused():
        return orjson.loads(raw)


@dataclass
class Instance:
    """A parsed and validated problem instance."""

    label: str
    space: KreinSpace
    pair: DefinitizablePair
    searched: tuple = field(default=())

    @property
    def N(self) -> np.ndarray:
        return self.pair.N

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()
        ).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "J": matrix_to_json(self.space.J),
            "N": matrix_to_json(self.N),
            "p": self.pair.p.to_list(),
            "q": self.pair.q.to_list(),
        }


def _decode_instance(source, tol_scale):
    """The Krein space, label, polynomials (None when absent) and given
    matrices of an instance, validated in :func:`parse_instance`'s order."""
    try:
        data = load_json(source) if isinstance(source, (str, Path)) else dict(source)
    except (OSError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot read an instance from {str(source)[:80]!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("an instance holds a JSON object")

    if "J" not in data:
        raise ValidationError("instance file lacks the Gram matrix 'J'")
    tol = DEFAULT_TOL
    if "tol" in data:
        try:
            overrides = {k: float(v) for k, v in data["tol"].items()}
            if not all(v >= 0 and np.isfinite(v) for v in overrides.values()):
                raise ValueError(f"negative or non-finite value in {overrides}")
            tol = tol.with_overrides(**overrides)
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"'tol' must map tolerance names to numbers >= 0: {exc}") from exc
    if tol_scale != 1.0:
        tol = tol.scaled(tol_scale)
    space = KreinSpace(matrix_from_json(data["J"], "J"), tol)

    label = str(data.get("label", ""))
    try:
        p, q = (RealPoly(data[k]) if k in data else None for k in ("p", "q"))
        if any(r is not None and not (r.coeffs.ndim == 1 and np.isfinite(r.coeffs).all())
               for r in (p, q)):
            raise ValueError("nested or non-finite coefficients")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("'p' and 'q' must be lists of finite real coefficients") from exc

    if "N" in data:
        given = {"N": matrix_from_json(data["N"], "N")}
    elif "A" in data and "B" in data:
        given = {name: matrix_from_json(data[name], name) for name in "AB"}
    else:
        raise ValidationError("instance needs either 'N' or both 'A' and 'B'")
    if any(M.shape != (space.n, space.n) for M in given.values()):
        raise ValidationError(f"{', '.join(given)} and Gram J disagree in size")
    return space, label, p, q, given


def parse_instance(source, tol_scale: float = 1.0) -> Instance:
    """Load and validate an instance from a path, JSON string, or dict.

    Validation order matches the failure messages callers branch on: Gram
    shape and Hermitianity, normality of N (or of A + iB, whose given parts
    must be its J-selfadjoint parts), then the definitizing property of the
    supplied polynomials. Missing polynomials trigger the bounded search.
    """
    # the decoded lists die with _decode_instance's frame, before the
    # collector resumes, so their allocations trigger no collection
    with _collector_paused():
        space, label, p, q, given = _decode_instance(source, tol_scale)

    N = given["N"] if "N" in given else given["A"] + 1j * given["B"]
    A, B, defect = split_normal(space, N)
    for name, part in zip("AB", (A, B)):
        if name in given:
            resid = fro(given[name] - part)
            if resid > space.tol.rel * (1.0 + fro(given[name])):
                raise ValidationError(
                    f"'{name}' is not J-selfadjoint: it differs by {resid:.2e} "
                    "from the matching part of A + iB"
                )
    searched = tuple(name for name, poly in zip("pq", (p, q)) if poly is None)
    pair = DefinitizablePair.from_parts(space, N, A, B, defect, p, q, label)
    return Instance(label, space, pair, searched)


# -- generation -------------------------------------------------------------


def _lattice(rng, size, lo=-4, hi=4, step=0.5):
    """Values on a step-lattice: spectral gaps are exactly 0 or >= step."""
    return rng.integers(lo, hi + 1, size=size) * step


def _krein_unitary(rng, J, strength=0.4):
    """exp(K) with JK skew-Hermitian: preserves the indefinite product."""
    n = J.shape[0]
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = (M - M.conj().T) / 2.0
    K = np.linalg.solve(J, skew) * (strength / max(1.0, norm2(skew)))
    return scipy.linalg.expm(K)


def _even_definitizing(values, signs):
    """prod (z - v)^2 over negative-sign slots, always >= 0."""
    roots = sorted({float(v) for v, s in zip(values, signs) if s < 0})
    p = RealPoly([1.0])
    for r in roots:
        p = p * RealPoly([-r, 1.0]) * RealPoly([-r, 1.0])
    return p


def _cap_negative_values(rng, values, signs, distinct=2):
    """Redraw negative-sign slots from a small palette.

    Keeps the zero grid of the attached polynomials desk-sized: its
    interpolation system grows with the product of the degrees.
    """
    neg = np.flatnonzero(signs < 0)
    if neg.size > distinct:
        palette = _lattice(rng, distinct)
        values = np.array(values, dtype=float)
        values[neg] = rng.choice(palette, size=neg.size)
    return values


def generate(seed: int, n: int, profile: str) -> Instance:
    """Deterministic random instance of one of three construction profiles.

    diagonal    random real diagonal parts conjugated by a random J-unitary,
                random signature Gram
    jordan      one nilpotent 2-cell at the origin with a flip Gram,
                direct-summed with a random diagonal block
    pontryagin  signature (n-1, 1) diagonal construction

    The definitizing pair is attached from the construction, so generated
    instances always validate.
    """
    if profile not in PROFILES:
        raise ValidationError(f"unknown profile {profile!r}; choose from {PROFILES}")
    if n < 2 or n > 12:
        raise ValidationError("instance dimension must be between 2 and 12")
    rng = np.random.default_rng(seed)
    label = f"{profile}-n{n}-seed{seed}"

    if profile in ("diagonal", "pontryagin"):
        if profile == "diagonal":
            signs = rng.choice([-1.0, 1.0], size=n)
        else:
            signs = np.ones(n)
            signs[-1] = -1.0
        a = _cap_negative_values(rng, _lattice(rng, n), signs)
        b = _cap_negative_values(rng, _lattice(rng, n), signs)
        p = _even_definitizing(a, signs)
        q = _even_definitizing(b, signs)
        J0 = np.diag(signs).astype(complex)
        U = _krein_unitary(rng, J0)
        Uinv = np.linalg.inv(U)
        A = U @ np.diag(a).astype(complex) @ Uinv
        B = U @ np.diag(b).astype(complex) @ Uinv
        data = {
            "label": label,
            "J": matrix_to_json(J0),
            "A": matrix_to_json(A),
            "B": matrix_to_json(B),
            "p": p.to_list(),
            "q": q.to_list(),
        }
        return parse_instance(data)

    # jordan: cell at the origin, flip Gram, diagonal remainder
    m = n - 2
    signs = rng.choice([-1.0, 1.0], size=m)
    a = _lattice(rng, m)
    # positive-sign slots must sit right of the origin when the cell keeps
    # an odd factor z in p (the shallow variant below)
    deep = bool(rng.integers(0, 2)) if m > 0 else (seed % 2 == 0)
    if not deep:
        a = np.abs(a) + 0.5
        a[signs < 0] = _lattice(rng, int(np.sum(signs < 0)))
    a = _cap_negative_values(rng, a, signs, distinct=1)
    b = np.abs(_lattice(rng, m)) + 0.5
    b[signs < 0] = _lattice(rng, int(np.sum(signs < 0)))
    b = _cap_negative_values(rng, b, signs, distinct=1)

    J = np.zeros((n, n), dtype=complex)
    J[0, 1] = J[1, 0] = 1.0
    A = np.zeros((n, n), dtype=complex)
    A[0, 1] = 1.0
    B = np.zeros((n, n), dtype=complex)
    for i in range(m):
        J[2 + i, 2 + i] = signs[i]
        A[2 + i, 2 + i] = a[i]
        B[2 + i, 2 + i] = b[i]

    if deep:
        p = RealPoly([0.0, 0.0, 1.0]) * _even_definitizing(a, signs)
    else:
        p = RealPoly([0.0, 1.0]) * _even_definitizing(a, signs)
    q = RealPoly([0.0, 1.0]) * _even_definitizing(b, signs)

    data = {
        "label": label,
        "J": matrix_to_json(J),
        "A": matrix_to_json(A),
        "B": matrix_to_json(B),
        "p": p.to_list(),
        "q": q.to_list(),
    }
    return parse_instance(data)
