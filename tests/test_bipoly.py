from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest

from kreincalc import (
    BiPoly,
    ConditioningError,
    DegenerateInputError,
    JetShape,
    RealPoly,
    ZeroGrid,
)
from kreincalc import bipoly
from kreincalc.bipoly import GCD_THETA, sylvester_spectrum
from kreincalc.jets import A_KIND, B_KIND

from calculus_reference import (
    euclidean_reduce, grid_jets, interpolate_jets, jets_at, shifted, taylor_shift
)


def expand(u, v, r, a, b):
    za, wb = BiPoly.from_dense(a.coeffs[:, None]), BiPoly.from_dense(b.coeffs[None, :])
    return za * u + wb * v + r


def coeff_distance(s1, s2):
    c1, c2 = dict(s1.items()), dict(s2.items())
    return max((abs(c1.get(kl, 0j) - c2.get(kl, 0j)) for kl in c1.keys() | c2.keys()), default=0.0)


def random_bipoly(rng, dz, dw):
    return BiPoly(
        {
            (k, l): complex(*rng.standard_normal(2))
            for k in range(dz + 1)
            for l in range(dw + 1)
        }
    )


def zeros_match(found, expected, tol=1e-7):
    if len(found) != len(expected):
        return False
    rest = list(expected)
    for z, m in found:
        hit = next(
            (i for i, (ze, me) in enumerate(rest) if abs(z - ze) <= tol and m == me),
            None,
        )
        if hit is None:
            return False
        rest.pop(hit)
    return True


class TestRealPoly:
    def test_trim_and_degree(self):
        assert RealPoly([1.0, 0.0]).degree == 0
        assert RealPoly([0, 1]).degree == 1
        assert RealPoly([]).is_zero()

    def test_eval_and_deriv(self):
        p = RealPoly([1, 2, 3])
        assert p(2.0) == 1 + 4 + 12
        assert p.deriv()(2.0) == 2 + 12

    def test_of_matrix(self):
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        p = RealPoly([1, 2, 5])
        assert np.allclose(p.of_matrix(A), np.eye(2) + 2 * A)


def test_identity_products_are_skipped_exactly():
    # of_matrix, matrix_powers and basis_at skip their products with the
    # identity; those add only exact zeros, so the results keep every bit
    rng = np.random.default_rng(19)
    n = 128
    A, B = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in "AB")
    eye = np.eye(n, dtype=complex)

    def bits(M):
        return np.ascontiguousarray(M).view(np.int64)

    def powers(M, count):
        pows = [eye]
        while len(pows) < count:
            pows.append(pows[-1] @ M)
        return np.array(pows)

    for coeffs in ([0.75], [0.5, -1.25], [-2.0, 0.25, 1.5, -0.75]):
        p = RealPoly(coeffs)
        want = eye * p.coeffs[-1]
        for c in p.coeffs[-2::-1]:
            want = want @ A + c * np.eye(n)
        assert np.array_equal(bits(p.of_matrix(A)), bits(want)), coeffs
    for count in (1, 2, 4):
        assert np.array_equal(bits(bipoly.matrix_powers(A, count)), bits(powers(A, count)))

    a = RealPoly([2, 1]) * RealPoly([-1, 1]) * RealPoly([-1, 1])
    system = bipoly.HermiteSystem(ZeroGrid.from_polys(a, RealPoly([0, 1]) * RealPoly([-3, 1])))
    Pa, Pb = (
        powers((M - mu * np.eye(n)) / rho, deg)
        for M, (mu, rho, deg) in zip((A, B), system._centre)
    )
    want = (Pa[:, None] @ Pb[None, :]).reshape(system.size, n, n)
    assert np.array_equal(bits(system.basis_at(A, B)), bits(want))


LATTICE = [0.5 * k for k in range(-8, 9)]


def generator_family():
    """Every polynomial the instance generator attaches, with its zeros:
    prod (z - r)^2 over at most two distinct lattice points, times 1, z or
    z^2."""
    roots = [()] + [(r,) for r in LATTICE] + list(combinations(LATTICE, 2))
    for rs in roots:
        for extra in range(3):
            if not rs and not extra:
                continue
            p, mult = RealPoly([1.0]), Counter()
            for r in rs:
                p = p * RealPoly([-r, 1.0]) * RealPoly([-r, 1.0])
                mult[r] += 2
            for _ in range(extra):
                p = p * RealPoly([0.0, 1.0])
                mult[0.0] += 1
            yield p, list(mult.items())


def quadratic_family(draws=40):
    """(z - r)^2 prod_{i <= k} ((z - c_i)^2 + d_i^2) with its zeros, for k =
    1, 2 and ``draws`` draws per lattice point r: distinct centres c_i
    between lattice points, d_i in {0.5, 0.75, 1}."""
    centres = np.array(LATTICE[:-1]) + 0.25
    for i, r in enumerate(LATTICE):
        for k in (1, 2):
            rng = np.random.default_rng([i, k])
            for _ in range(draws):
                p, mult = RealPoly([-r, 1.0]) * RealPoly([-r, 1.0]), [(r, 2)]
                cs = rng.choice(centres, size=k, replace=False)
                for c, d in zip(cs, rng.choice([0.5, 0.75, 1.0], size=k)):
                    p = p * RealPoly([c * c + d * d, -2.0 * c, 1.0])
                    mult += [(complex(c, d), 1), (complex(c, -d), 1)]
                yield p, mult


class TestZeros:
    def test_monomial(self):
        assert zeros_match(RealPoly([0, 1]).zeros(), [(0, 1)])

    def test_double_zero(self):
        assert zeros_match(RealPoly([0, 0, 1]).zeros(), [(0, 2)])

    def test_mixed_multiplicities(self):
        p = RealPoly([-1, 1]) * RealPoly([-1, 1]) * RealPoly([2, 1])
        assert zeros_match(p.zeros(), [(1, 2), (-2, 1)])

    def test_zero_polynomial(self):
        with pytest.raises(DegenerateInputError):
            RealPoly([0.0]).zeros()

    def test_conjugate_pairing(self):
        zs = RealPoly([1, 0, 1]).zeros()
        assert zeros_match(zs, [(1j, 1), (-1j, 1)])
        vals = [z for z, _ in zs]
        assert np.conj(vals[0]) in vals

    def test_conjugate_multiplicity_pairs(self):
        p = RealPoly([1, 0, 1]) * RealPoly([1, 0, 1])  # (z^2+1)^2
        assert zeros_match(p.zeros(), [(1j, 2), (-1j, 2)])

    def test_straddling_double_roots_merge(self):
        # perturbed real double roots come back as conjugate pairs that must
        # collapse to one real zero of multiplicity two
        p = (
            RealPoly([2.0, 1.0]) * RealPoly([2.0, 1.0])
            * RealPoly([1.5, 1.0]) * RealPoly([1.5, 1.0])
        )
        assert zeros_match(p.zeros(), [(-2.0, 2), (-1.5, 2)])

    def test_off_origin_triple_zero(self):
        # triple roots scatter far beyond the flat clustering radius
        p = RealPoly([1.0])
        for r, m in ((0.5, 3), (-1.0, 2)):
            for _ in range(m):
                p = p * RealPoly([-r, 1.0])
        assert zeros_match(p.zeros(), [(0.5, 3), (-1.0, 2)])

    def test_quadruple_zero(self):
        p = RealPoly([1.0])
        for _ in range(4):
            p = p * RealPoly([-1.0, 1.0])
        assert zeros_match(p.zeros(), [(1.0, 4)])

    def test_nonreal_triple_pair(self):
        p = RealPoly([1, 0, 1]) * RealPoly([1, 0, 1]) * RealPoly([1, 0, 1])
        assert zeros_match(p.zeros(), [(1j, 3), (-1j, 3)])

    @pytest.mark.parametrize(
        "family, count, nonreal",
        [(generator_family, 461, 0), (quadratic_family, 1360, 4080)],
        ids=["generator", "quadratic"],
    )
    def test_generator_family_exact_multiplicities(self, family, count, nonreal, monkeypatch):
        spectra = []

        def recording(a, b):
            spectra.append(sylvester_spectrum(a, b))
            return spectra[-1]

        monkeypatch.setattr(bipoly, "sylvester_spectrum", recording)
        polys = list(family())
        zeros = [p.zeros() for p, _ in polys]
        misread = [mult for zs, (_, mult) in zip(zeros, polys) if not zeros_match(zs, mult)]
        assert len(polys) == count
        assert misread == []
        # every nonreal zero has its conjugate, bit for bit, at the same
        # multiplicity: the calculus pairs them up by exact lookup
        found = [(z, m, zs) for zs in zeros for z, m in zs if z.imag != 0.0]
        assert len(found) == nonreal
        assert [(z, m) for z, m, zs in found if (z.conjugate(), m) not in zs] == []
        # every rank decision of the GCD chains clears GCD_THETA by 10x
        s = np.concatenate(spectra)
        assert s[s <= GCD_THETA].max(initial=0.0) <= GCD_THETA / 10
        assert s[s > GCD_THETA].min() >= 10 * GCD_THETA

    def test_close_simple_zeros_stay_apart(self):
        p = RealPoly([-1e-3, 1.0]) * RealPoly([1e-3, 1.0]) * RealPoly([0, 1.0])
        assert zeros_match(p.zeros(), [(-1e-3, 1), (0.0, 1), (1e-3, 1)], tol=1e-9)


class TestJetOfPoly:
    def test_constant_gives_unit(self):
        s = BiPoly.constant(1.0)
        for shape in (JetShape(0, 0, A_KIND), JetShape(2, 1, A_KIND), JetShape(2, 2, B_KIND)):
            _, coeffs = jets_at(s, [(0.3 + 0.1j, -0.2)], [shape])[0]
            assert np.allclose(coeffs, np.eye(1, shape.size)[0])

    def test_pure_power(self):
        s = BiPoly({(2, 0): 1.0})  # p(z) = z^2 as a two-variable polynomial
        shape = JetShape(2, 1, A_KIND)
        jet = dict(zip(shape.indices, jets_at(s, [(0.0, 5.0)], [shape])[0][1]))
        expected = {kl: 0.0 for kl in shape.indices}
        expected[(2, 0)] = 1.0
        for kl, v in expected.items():
            assert jet[kl] == pytest.approx(v)

    def test_linear_shift(self):
        lam = 0.7 - 0.3j
        s = BiPoly.variable("z") + 1j * BiPoly.variable("w") - BiPoly.constant(lam)
        xi, eta = 1.5j, -0.5
        shape = JetShape(2, 2, B_KIND)
        jet = dict(zip(shape.indices, jets_at(s, [(xi, eta)], [shape])[0][1]))
        assert jet[(0, 0)] == pytest.approx(xi + 1j * eta - lam)
        assert jet[(1, 0)] == pytest.approx(1.0)
        assert jet[(0, 1)] == pytest.approx(1j)
        assert jet[(1, 1)] == pytest.approx(0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        s = random_bipoly(rng, 3, 2)
        x0, y0 = 0.4, -1.1
        h = 1e-5
        shape = JetShape(2, 2, A_KIND)
        jet = dict(zip(shape.indices, jets_at(s, [(x0, y0)], [shape])[0][1]))
        # central differences on the restriction to real arguments
        d10 = (s(x0 + h, y0) - s(x0 - h, y0)) / (2 * h)
        d01 = (s(x0, y0 + h) - s(x0, y0 - h)) / (2 * h)
        d11 = (
            s(x0 + h, y0 + h) - s(x0 + h, y0 - h) - s(x0 - h, y0 + h) + s(x0 - h, y0 - h)
        ) / (4 * h * h)
        assert jet[(0, 0)] == pytest.approx(s(x0, y0), abs=1e-12)
        assert jet[(1, 0)] == pytest.approx(d10, abs=1e-6)
        assert jet[(0, 1)] == pytest.approx(d01, abs=1e-6)
        assert jet[(1, 1)] == pytest.approx(d11, abs=1e-6)


def termwise_shift(s, z0, w0):
    """Reference Taylor shift: sum C(K,k) C(L,l) z0^(K-k) w0^(L-l) c_KL, term by term."""
    out = {}
    for (K, L), v in s.items():
        for k in range(K + 1):
            for l in range(L + 1):
                term = v * comb(K, k) * comb(L, l) * z0 ** (K - k) * w0 ** (L - l)
                out[(k, l)] = out.get((k, l), 0j) + term
    return out


class TestTaylorKernel:
    # kind a with the overflow slots (m, 0), (0, n) reaching past the
    # polynomial's degree, the scalar kind a, and kind b boxes
    SHAPES = [
        JetShape(0, 0, A_KIND),
        JetShape(1, 1, A_KIND),
        JetShape(2, 3, A_KIND),
        JetShape(6, 1, A_KIND),
        JetShape(1, 1, B_KIND),
        JetShape(3, 2, B_KIND),
    ]

    def test_batched_jets_match_termwise_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            s = random_bipoly(rng, *rng.integers(0, 5, size=2))
            points = [tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
                      for _ in self.SHAPES]
            scale = 1.0 + max(abs(v) for v in termwise_shift(s, 2.0, 2.0).values())
            batched = jets_at(s, points, self.SHAPES)
            for (z0, w0), shape, (_, coeffs) in zip(points, self.SHAPES, batched):
                ref = termwise_shift(s, z0, w0)
                expected = [ref.get(kl, 0j) for kl in shape.indices]
                assert np.allclose(coeffs, expected, rtol=0, atol=1e-12 * scale)
                _, single = jets_at(s, [(z0, w0)], [shape])[0]
                assert np.allclose(single, expected, rtol=0, atol=1e-12 * scale)

    def test_table_beyond_degree_is_zero(self):
        s = BiPoly({(1, 2): 2.0 - 1j})
        table = taylor_shift(s.dense(), [0.5j], [-1.5], 4, 3)
        assert table.shape == (1, 5, 4)
        assert np.all(table[0, 2:, :] == 0) and np.all(table[0, :, 3:] == 0)

    def test_shifted_matches_reference_and_round_trips(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            s = random_bipoly(rng, *rng.integers(0, 6, size=2))
            z0, w0 = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            moved = shifted(s, z0, w0)
            ref = BiPoly(termwise_shift(s, z0, w0))
            assert coeff_distance(moved, ref) <= 1e-12 * (1.0 + np.abs(ref.dense()).max())
            back = shifted(moved, -z0, -w0)
            assert coeff_distance(back, s) <= 1e-10 * (1.0 + np.abs(ref.dense()).max())


class TestEuclideanReduce:
    def test_exact_division(self):
        s = BiPoly({(2, 1): 1.0})  # z^2 w
        u, v, r = euclidean_reduce(s, RealPoly([0, 0, 1]), RealPoly([-1, 1]))
        assert coeff_distance(u, BiPoly.variable("w")) <= 1e-14
        assert not v and not r

    def test_remainder_example(self):
        s = BiPoly.variable("z") + BiPoly.variable("w")
        u, v, r = euclidean_reduce(s, RealPoly([0, 0, 1]), RealPoly([0, 1]))
        assert not u
        assert coeff_distance(v, BiPoly.constant(1.0)) <= 1e-14
        assert coeff_distance(r, BiPoly.variable("z")) <= 1e-14

    def test_ideal_members_have_zero_remainder(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = RealPoly(rng.standard_normal(rng.integers(2, 5)))
            b = RealPoly(rng.standard_normal(rng.integers(2, 5)))
            u0 = random_bipoly(rng, 2, 2)
            v0 = random_bipoly(rng, 2, 2)
            s = expand(u0, v0, BiPoly(), a, b)
            _, _, r = euclidean_reduce(s, a, b)
            assert np.abs(r.dense()).max() <= 1e-9 * (1.0 + np.abs(s.dense()).max())

    def test_round_trip_and_degree_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = RealPoly(rng.standard_normal(rng.integers(2, 6)))
            b = RealPoly(rng.standard_normal(rng.integers(2, 6)))
            s = random_bipoly(rng, 4, 4)
            u, v, r = euclidean_reduce(s, a, b)
            back = expand(u, v, r, a, b)
            # cancellation is relative to the intermediate products
            scale = max(
                np.abs(s.dense()).max(),
                np.sum(np.abs(a.coeffs)) * np.abs(u.dense()).max(),
                np.sum(np.abs(b.coeffs)) * np.abs(v.dense()).max(),
                1.0,
            )
            assert coeff_distance(back, s) <= 1e-10 * scale
            assert not r or (r.degree_z < a.degree and r.degree_w < b.degree)

    def test_real_inputs_stay_real(self):
        rng = np.random.default_rng(13)
        a, b = RealPoly([1, 2, 1]), RealPoly([0, 1, 3])
        s = BiPoly(
            {(k, l): rng.standard_normal() for k in range(4) for l in range(3)}
        )
        for out in euclidean_reduce(s, a, b):
            assert not out.dense().imag.any()


class TestGridJets:
    def grid(self):
        return ZeroGrid.from_polys(RealPoly([0, 0, 1]), RealPoly([-1, 1]))

    def test_zero_polynomial(self):
        jets = grid_jets(BiPoly(), self.grid())
        assert not any(coeffs.any() for _, coeffs in jets.values())

    def test_worked_example(self):
        jets = grid_jets(BiPoly({(2, 1): 1.0}), self.grid())
        _, coeffs = jets[(0j, 1 + 0j)]
        assert np.allclose(coeffs, [0.0, 0.0])

    def test_kernel_is_the_ideal(self):
        rng = np.random.default_rng(14)
        a, b = RealPoly([0, 0, 1]), RealPoly([-1, 1])
        for _ in range(20):
            s = expand(random_bipoly(rng, 2, 2), random_bipoly(rng, 2, 2), BiPoly(), a, b)
            jets = grid_jets(s, ZeroGrid.from_polys(a, b))
            worst = max(np.abs(coeffs).max() for _, coeffs in jets.values())
            assert worst <= 1e-9 * (1.0 + np.abs(s.dense()).max())

    def test_division_remainder_has_same_jets(self):
        rng = np.random.default_rng(15)
        a, b = RealPoly([1, 0, 1]), RealPoly([0, 1])  # nonreal grid included
        grid = ZeroGrid.from_polys(a, b)
        s = random_bipoly(rng, 4, 3)
        _, _, r = euclidean_reduce(s, a, b)
        js, jr = grid_jets(s, grid), grid_jets(r, grid)
        atol = 1e-10 * (1 + np.abs(s.dense()).max())
        for key in js:
            assert np.allclose(js[key][1], jr[key][1], atol=atol)


class TestInterpolation:
    def test_zero_targets(self):
        grid = ZeroGrid.from_polys(RealPoly([0, 0, 1]), RealPoly([0, 1]))
        targets = {key: jet for key, jet in grid_jets(BiPoly(), grid).items()}
        assert not interpolate_jets(targets, grid)

    def test_worked_example(self):
        grid = ZeroGrid.from_polys(RealPoly([0, 0, 1]), RealPoly([0, 1]))
        c0, c1 = 2.5, -1.0 + 2j
        targets = {(0j, 0j): (JetShape(2, 1, B_KIND), [c0, c1])}
        r = interpolate_jets(targets, grid)
        assert coeff_distance(r, BiPoly({(0, 0): c0, (1, 0): c1})) <= 1e-12

    def test_round_trip_both_ways(self):
        rng = np.random.default_rng(16)
        a = RealPoly([2, 1]) * RealPoly([-1, 1]) * RealPoly([-1, 1])
        b = RealPoly([0, 1]) * RealPoly([-3, 1])
        grid = ZeroGrid.from_polys(a, b)
        s = random_bipoly(rng, a.degree - 1, b.degree - 1)
        r = interpolate_jets(grid_jets(s, grid), grid)
        assert coeff_distance(r, s) <= 1e-10 * (1.0 + np.abs(s.dense()).max())
        back = grid_jets(r, grid)
        for key, (_, coeffs) in grid_jets(s, grid).items():
            assert np.allclose(back[key][1], coeffs, atol=1e-10)

    def test_conditioning_error(self):
        grid = ZeroGrid(
            a_zeros=((0j, 1), (1e-14 + 0j, 1)),
            b_zeros=((0j, 1),),
        )
        shape = JetShape(1, 1, B_KIND)
        targets = {
            (0j, 0j): (shape, [1.0]),
            (1e-14 + 0j, 0j): (shape, [0.0]),
        }
        with pytest.raises(ConditioningError):
            interpolate_jets(targets, grid)


def test_zero_grid_cross_and_real_parts():
    grid = ZeroGrid.from_polys(RealPoly([1, 0, 1]) * RealPoly([0, 1]), RealPoly([0, 1]))
    real_a = [z for z, _ in grid.real_a]
    assert real_a == [0.0]
    cross_points = {(za, zb) for (za, _), (zb, _) in grid.cross()}
    assert (1j, 0j) in cross_points and (-1j, 0j) in cross_points
    assert len(cross_points) == 2
