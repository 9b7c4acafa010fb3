"""Truncated bivariate jets with convolution product.

Two coefficient containers over an ``m x n`` degree box:

* kind ``"a"`` - the box plus two overflow slots ``(m, 0)`` and ``(0, n)``;
  the degenerate shape ``m = n = 0`` is a single scalar slot, and mixed
  degenerate shapes are rejected.
* kind ``"b"`` - the box alone.

Both are commutative unital *-algebras, run on coefficient arrays of a
shape: linear structure and conjugation are entrywise, the product is
:func:`convolve`, the truncated convolution

    (a * b)[k, l] = sum_{c<=k, d<=l} a[c, d] * b[k-c, l-d]

where the sum keeps only index pairs present in the shape (for the admissible
shapes this drops nothing), and the inverse is :func:`invert`. Entries are
stored in graded-lexicographic order with the overflow slots last, which makes
the inversion recurrence triangular and the box part of a kind-a jet a prefix
of its array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotInvertibleError, ShapeMismatchError

A_KIND = "a"
B_KIND = "b"


@dataclass(frozen=True)
class JetShape:
    """Index set of a jet: degree bounds ``(m, n)`` and the container kind."""

    m: int
    n: int
    kind: str = A_KIND

    def __post_init__(self):
        if self.kind not in (A_KIND, B_KIND):
            raise ValueError(f"unknown jet kind {self.kind!r}")
        if self.m < 0 or self.n < 0:
            raise ValueError("degree bounds must be nonnegative")
        if self.kind == A_KIND and (self.m == 0) != (self.n == 0):
            raise ValueError("scalar-degenerate shape needs m = n = 0")
        if self.kind == B_KIND and (self.m == 0 or self.n == 0):
            raise ValueError("box shape needs m, n >= 1")

    @property
    def indices(self):
        return _indices(self.m, self.n, self.kind)

    @property
    def size(self):
        return len(self.indices)

    def position(self, k, l):
        try:
            return _position_map(self.m, self.n, self.kind)[(k, l)]
        except KeyError:
            raise ShapeMismatchError(f"index ({k}, {l}) not in {self}") from None

    def box(self) -> "JetShape":
        """The box shape, whose entries lead a jet of this shape: the box
        part of a kind-a jet is the prefix of its array (identity on kind b)."""
        if self.kind == B_KIND or (self.m == 0 and self.n == 0):
            return self
        return JetShape(self.m, self.n, B_KIND)


@lru_cache(maxsize=None)
def _indices(m, n, kind):
    box = [(k, l) for k in range(m) for l in range(n)]
    box.sort(key=lambda kl: (kl[0] + kl[1], kl[1]))
    if kind == A_KIND:
        if m == 0 and n == 0:
            return ((0, 0),)
        return tuple(box) + ((m, 0), (0, n))
    return tuple(box)


@lru_cache(maxsize=None)
def _position_map(m, n, kind):
    return {kl: i for i, kl in enumerate(_indices(m, n, kind))}


@lru_cache(maxsize=None)
def _product_table(shape: JetShape):
    """Per output position, the factor-position pairs of the truncated sum."""
    idx = shape.indices
    pos = _position_map(shape.m, shape.n, shape.kind)
    table = []
    for k, l in idx:
        pa, pb = [], []
        for c in range(k + 1):
            for d in range(l + 1):
                ia = pos.get((c, d))
                ib = pos.get((k - c, l - d))
                if ia is not None and ib is not None:
                    pa.append(ia)
                    pb.append(ib)
        table.append((np.array(pa, dtype=int), np.array(pb, dtype=int)))
    return tuple(table)


def convolve(shape: JetShape, a, b) -> np.ndarray:
    """Entries of the truncated product of two coefficient arrays of ``shape``."""
    out = np.empty(shape.size, dtype=complex)
    for t, (pa, pb) in enumerate(_product_table(shape)):
        out[t] = np.dot(a[pa], b[pb])
    return out


def invert(shape: JetShape, a, abs_tol: float = 1e-12) -> np.ndarray:
    """Entries of the multiplicative inverse of a coefficient array of
    ``shape``, solving the convolution system in graded order."""
    pos0 = shape.position(0, 0)
    a00 = complex(a[pos0])
    if abs(a00) <= abs_tol:
        raise NotInvertibleError(
            f"jet has (0,0) entry {a00:.3e} below tolerance {abs_tol:.1e}"
        )
    table = _product_table(shape)
    x = np.zeros(shape.size, dtype=complex)
    x[pos0] = 1.0 / a00
    for t in range(shape.size):
        if t == pos0:
            continue
        pa, pb = table[t]
        keep = pa != pos0
        acc = np.dot(a[pa[keep]], x[pb[keep]])
        x[t] = -acc / a00
    return x
