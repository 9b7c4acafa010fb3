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
    euclidean_reduce,
    grid_jets,
    interpolate_jets,
)
from kreincalc.bipoly import jets_at, taylor_shift
from kreincalc.jets import A_KIND, B_KIND


def expand(u, v, r, a, b):
    return BiPoly.from_univariate(a, "z") * u + BiPoly.from_univariate(b, "w") * v + r


def coeff_distance(s1, s2):
    keys = {kl for kl, _ in s1.items()} | {kl for kl, _ in s2.items()}
    return max((abs(s1.coeff(*kl) - s2.coeff(*kl)) for kl in keys), default=0.0)


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

    def test_generator_family_exact_multiplicities(self):
        # every polynomial the instance generator attaches: prod (z - r)^2
        # over at most two distinct lattice points, times 1, z or z^2
        lattice = [0.5 * k for k in range(-8, 9)]
        roots = [()] + [(r,) for r in lattice] + list(combinations(lattice, 2))
        misread = []
        count = 0
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
                count += 1
                if not zeros_match(p.zeros(), list(mult.items())):
                    misread.append((rs, extra))
        assert count == 461
        assert misread == []

    def test_close_simple_zeros_stay_apart(self):
        p = RealPoly([-1e-3, 1.0]) * RealPoly([1e-3, 1.0]) * RealPoly([0, 1.0])
        assert zeros_match(p.zeros(), [(-1e-3, 1), (0.0, 1), (1e-3, 1)], tol=1e-9)


class TestJetOfPoly:
    def test_constant_gives_unit(self):
        s = BiPoly.constant(1.0)
        for shape in (JetShape(0, 0, A_KIND), JetShape(2, 1, A_KIND), JetShape(2, 2, B_KIND)):
            jet = s.jet_at((0.3 + 0.1j, -0.2), shape)
            assert np.allclose(jet.coeffs, np.eye(1, shape.size)[0])

    def test_pure_power(self):
        s = BiPoly({(2, 0): 1.0})  # p(z) = z^2 as a two-variable polynomial
        shape = JetShape(2, 1, A_KIND)
        jet = s.jet_at((0.0, 5.0), shape)
        expected = {kl: 0.0 for kl in shape.indices}
        expected[(2, 0)] = 1.0
        for kl, v in expected.items():
            assert jet.entry(*kl) == pytest.approx(v)

    def test_linear_shift(self):
        lam = 0.7 - 0.3j
        s = BiPoly.variable("z") + 1j * BiPoly.variable("w") - BiPoly.constant(lam)
        xi, eta = 1.5j, -0.5
        jet = s.jet_at((xi, eta), JetShape(2, 2, B_KIND))
        assert jet.entry(0, 0) == pytest.approx(xi + 1j * eta - lam)
        assert jet.entry(1, 0) == pytest.approx(1.0)
        assert jet.entry(0, 1) == pytest.approx(1j)
        assert jet.entry(1, 1) == pytest.approx(0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        s = random_bipoly(rng, 3, 2)
        x0, y0 = 0.4, -1.1
        h = 1e-5
        jet = s.jet_at((x0, y0), JetShape(2, 2, A_KIND))
        # central differences on the restriction to real arguments
        d10 = (s(x0 + h, y0) - s(x0 - h, y0)) / (2 * h)
        d01 = (s(x0, y0 + h) - s(x0, y0 - h)) / (2 * h)
        d11 = (
            s(x0 + h, y0 + h) - s(x0 + h, y0 - h) - s(x0 - h, y0 + h) + s(x0 - h, y0 - h)
        ) / (4 * h * h)
        assert jet.entry(0, 0) == pytest.approx(s(x0, y0), abs=1e-12)
        assert jet.entry(1, 0) == pytest.approx(d10, abs=1e-6)
        assert jet.entry(0, 1) == pytest.approx(d01, abs=1e-6)
        assert jet.entry(1, 1) == pytest.approx(d11, abs=1e-6)


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
            for (z0, w0), shape, jet in zip(points, self.SHAPES, batched):
                ref = termwise_shift(s, z0, w0)
                expected = [ref.get(kl, 0j) for kl in shape.indices]
                assert np.allclose(jet.coeffs, expected, rtol=0, atol=1e-12 * scale)
                single = s.jet_at((z0, w0), shape)
                assert np.allclose(single.coeffs, expected, rtol=0, atol=1e-12 * scale)

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
            shifted = s.shifted(z0, w0)
            ref = BiPoly(termwise_shift(s, z0, w0))
            assert coeff_distance(shifted, ref) <= 1e-12 * (1.0 + ref.max_abs_coeff())
            back = shifted.shifted(-z0, -w0)
            assert coeff_distance(back, s) <= 1e-10 * (1.0 + ref.max_abs_coeff())


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
            assert r.max_abs_coeff() <= 1e-9 * (1.0 + s.max_abs_coeff())

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
                s.max_abs_coeff(),
                np.sum(np.abs(a.coeffs)) * u.max_abs_coeff(),
                np.sum(np.abs(b.coeffs)) * v.max_abs_coeff(),
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
            assert out.is_real(0.0)


class TestGridJets:
    def grid(self):
        return ZeroGrid.from_polys(RealPoly([0, 0, 1]), RealPoly([-1, 1]))

    def test_zero_polynomial(self):
        jets = grid_jets(BiPoly(), self.grid())
        assert all(j.is_zero() for j in jets.values())

    def test_worked_example(self):
        jets = grid_jets(BiPoly({(2, 1): 1.0}), self.grid())
        jet = jets[(0j, 1 + 0j)]
        assert np.allclose(jet.coeffs, [0.0, 0.0])

    def test_kernel_is_the_ideal(self):
        rng = np.random.default_rng(14)
        a, b = RealPoly([0, 0, 1]), RealPoly([-1, 1])
        for _ in range(20):
            s = expand(random_bipoly(rng, 2, 2), random_bipoly(rng, 2, 2), BiPoly(), a, b)
            jets = grid_jets(s, ZeroGrid.from_polys(a, b))
            worst = max(j.norm() for j in jets.values())
            assert worst <= 1e-9 * (1.0 + s.max_abs_coeff())

    def test_division_remainder_has_same_jets(self):
        rng = np.random.default_rng(15)
        a, b = RealPoly([1, 0, 1]), RealPoly([0, 1])  # nonreal grid included
        grid = ZeroGrid.from_polys(a, b)
        s = random_bipoly(rng, 4, 3)
        _, _, r = euclidean_reduce(s, a, b)
        js, jr = grid_jets(s, grid), grid_jets(r, grid)
        for key in js:
            assert np.allclose(js[key].coeffs, jr[key].coeffs, atol=1e-10 * (1 + s.max_abs_coeff()))


class TestInterpolation:
    def test_zero_targets(self):
        grid = ZeroGrid.from_polys(RealPoly([0, 0, 1]), RealPoly([0, 1]))
        targets = {key: jet for key, jet in grid_jets(BiPoly(), grid).items()}
        assert not interpolate_jets(targets, grid)

    def test_worked_example(self):
        from kreincalc import Jet

        grid = ZeroGrid.from_polys(RealPoly([0, 0, 1]), RealPoly([0, 1]))
        c0, c1 = 2.5, -1.0 + 2j
        targets = {(0j, 0j): Jet(JetShape(2, 1, B_KIND), [c0, c1])}
        r = interpolate_jets(targets, grid)
        assert coeff_distance(r, BiPoly({(0, 0): c0, (1, 0): c1})) <= 1e-12

    def test_round_trip_both_ways(self):
        rng = np.random.default_rng(16)
        a = RealPoly([2, 1]) * RealPoly([-1, 1]) * RealPoly([-1, 1])
        b = RealPoly([0, 1]) * RealPoly([-3, 1])
        grid = ZeroGrid.from_polys(a, b)
        s = random_bipoly(rng, a.degree - 1, b.degree - 1)
        r = interpolate_jets(grid_jets(s, grid), grid)
        assert coeff_distance(r, s) <= 1e-10 * (1.0 + s.max_abs_coeff())
        back = grid_jets(r, grid)
        for key, jet in grid_jets(s, grid).items():
            assert np.allclose(back[key].coeffs, jet.coeffs, atol=1e-10)

    def test_conditioning_error(self):
        grid = ZeroGrid(
            a_zeros=((0j, 1), (1e-14 + 0j, 1)),
            b_zeros=((0j, 1),),
        )
        from kreincalc import Jet

        shape = JetShape(1, 1, B_KIND)
        targets = {
            (0j, 0j): Jet(shape, [1.0]),
            (1e-14 + 0j, 0j): Jet(shape, [0.0]),
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
