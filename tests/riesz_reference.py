"""phi(N) from the Riesz decomposition of (A, B), without the construction.

A and B commute, and on the joint root space of a point ``(x, y)`` the
operators ``A - x`` and ``B - y`` are nilpotent. Jet entry ``(k, l)`` of a
function at that point is a Taylor coefficient, so

    phi(N) = sum_p sum_{(k, l)} phi_p[k, l] (A - x_p)^k (B - y_p)^l E_p,

over the noncritical values ``x + iy`` (1 x 1 jets at ``(x, y)``), the
critical points and the nonreal zero pairs ``(z, w)``, with
``E_p = P^A_{x_p} P^B_{y_p}`` the product of the Riesz idempotents of A at
``x_p`` and of B at ``y_p``. Each idempotent is the trapezoid rule on a
circle around its point, radius ``RADIUS`` times the distance to the
nearest other point of that variable, with ``NODES`` nodes; its error
decays geometrically in ``NODES`` (Trefethen & Weideman, "The exponentially
convergent trapezoidal rule", SIAM Review 56, 2014). Only the point list
and the jet shapes of a ``CriticalSet`` are read: no embedding, no
interpolation, no spectral integral.
"""

import numpy as np

NODES = 64
RADIUS = 0.4


def circles(values, merge):
    """The distinct points of ``values`` (a value within ``merge`` of an
    earlier point stands for it) and the radius of each one's circle; a
    lone point's circle has radius 1."""
    centres = []
    for v in values:
        if all(abs(v - c) > merge for c in centres):
            centres.append(complex(v))
    gaps = [[abs(c - o) for j, o in enumerate(centres) if j != i] for i, c in enumerate(centres)]
    return centres, [RADIUS * min(g) if g else 1.0 for g in gaps]


def riesz_idempotent(M, centre, radius, nodes=NODES):
    """(1 / 2 pi i) of the integral of (zeta - M)^-1 over the circle, by the
    trapezoid rule: the mean of ``(zeta - centre) (zeta - M)^-1`` over the
    nodes."""
    eye = np.eye(len(M))
    out = np.zeros(M.shape, dtype=complex)
    for t in np.exp(2j * np.pi * (np.arange(nodes) + 0.5) / nodes):
        out += radius * t * np.linalg.solve((centre + radius * t) * eye - M, eye)
    return out / nodes


def trapezoid_error(eigenvalues, centre, radius, nodes=NODES):
    """The trapezoid rule's worst weight error over ``eigenvalues``: a
    simple eigenvalue at distance rho enters the sum with weight
    ``1 / (1 - t^M)`` inside the circle and ``-t^M / (1 - t^M)`` outside,
    ``t = rho / r`` or ``r / rho``, instead of 1 and 0."""
    t = np.abs(np.asarray(eigenvalues) - centre) / radius
    t = np.minimum(t, 1.0 / np.maximum(t, 1e-300))
    tm = t**nodes
    return float(np.max(tm / (1.0 - tm), initial=0.0))


class RieszReference:
    """The point list of a critical set with each point's jet shape and
    ``E_p``, and the operator ``(A - x)^k (B - y)^l E_p`` of every
    coordinate, in layout order: values, then critical jets, then zero-pair
    jets, each jet in its shape's index order."""

    def __init__(self, cs, A, B):
        pts = [((z.real, z.imag), None) for z in cs.noncritical]
        pts += [((c.value.real, c.value.imag), c.shape) for c in cs.crit]
        pts += [(pt.zw, pt.shape) for pt in cs.zi]
        self.points = [(complex(x), complex(y)) for (x, y), _ in pts]
        self.shapes = [shape for _, shape in pts]
        self.error = 0.0  # the worst trapezoid weight error of any idempotent
        factors = []
        for M, coord in ((A, 0), (B, 1)):
            centres, radii = circles([p[coord] for p in self.points], cs.radius)
            eigs = np.linalg.eigvals(M)
            P = [riesz_idempotent(M, c, r) for c, r in zip(centres, radii)]
            self.error = max([self.error] + [trapezoid_error(eigs, c, r)
                                             for c, r in zip(centres, radii)])
            factors.append([P[int(np.argmin([abs(p[coord] - c) for c in centres]))]
                            for p in self.points])
        self.E = [Pa @ Pb for Pa, Pb in zip(*factors)]
        eye = np.eye(len(A))
        terms = []
        for (x, y), shape, E in zip(self.points, self.shapes, self.E):
            for k, l in [(0, 0)] if shape is None else shape.indices:
                Sx = np.linalg.matrix_power(A - x * eye, k)
                Sy = np.linalg.matrix_power(B - y * eye, l)
                terms.append(Sx @ Sy @ E)
        self.terms = np.array(terms)
        self.norms = np.linalg.norm(self.terms, axis=(1, 2))

    def apply(self, coords):
        """phi(N) for the coordinate vector ``coords``, and the scale
        ``sum_e |coords_e| ||term_e||_F`` its rounding is relative to."""
        return np.tensordot(coords, self.terms, 1), float(np.abs(coords) @ self.norms)
