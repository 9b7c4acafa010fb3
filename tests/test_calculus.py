import dataclasses

import numpy as np
import pytest
import scipy.linalg

from kreincalc import (
    DEFAULT_TOL,
    BiPoly,
    BoundaryError,
    CalculusContext,
    CalculusFunction,
    ConditioningError,
    DefinitizablePair,
    Disk,
    DomainMismatchError,
    Instance,
    Jet,
    JetShape,
    NotInCommutantError,
    NotInIdealError,
    NotInvertibleError,
    RealPoly,
    Rect,
    RegionUnion,
    KreinSpace,
    ShapeMismatchError,
    diagonalize,
    function_from_dict,
    run_suite,
)
from kreincalc import bipoly, calculus, parse_instance
from kreincalc.calculus import Layout
from kreincalc.cluster import cluster_points, match_points
from kreincalc.jets import A_KIND
from kreincalc.tol import fro

from calculus_reference import decompose, interpolant, reference_apply, remainder, taylor_lift
from cluster_reference import match_point
from conftest import FIXTURES, assert_same_set, jordan_pair, lattice_pair, load_recipe

Z = BiPoly.variable("z")
W = BiPoly.variable("w")


def shift_poly(lam):
    return Z + 1j * W - BiPoly.constant(lam)


class TestCriticalSet:
    def test_w1(self, w1_ctx):
        cs = w1_ctx.cs
        assert [c.value for c in cs.crit] == [3j]
        assert cs.crit[0].shape == JetShape(1, 1, A_KIND)
        assert not cs.crit[0].spectral and not cs.crit[0].in_sigma_n
        assert cs.zi == ()
        assert sorted(cs.support_values(), key=lambda z: z.real) == [
            pytest.approx(-1 + 3j),
            pytest.approx(1 + 2j),
        ]

    def test_w2(self, w2_ctx):
        cs = w2_ctx.cs
        assert [c.value for c in cs.crit] == [0j]
        assert cs.crit[0].shape == JetShape(2, 1, A_KIND)
        assert cs.noncritical == ()
        assert not cs.crit[0].spectral and cs.crit[0].in_sigma_n
        assert cs.support_values() == (0j,)

    @pytest.mark.parametrize("case", ["rotation", "lattice"])
    def test_zi_instance(self, case, zi_ctx):
        if case == "rotation":
            ctx = zi_ctx
        else:  # p and q: a real zero and two positive quadratics each
            ctx = CalculusContext.build(lattice_pair(0, 8, ((-3.75, 1.0), (-3.25, 0.75)))[0])
        cs = ctx.cs
        # a pair's conjugate partner holds its exact conjugates, and partners
        # point at each other
        for i, pt in enumerate(cs.zi):
            za, zb = pt.zw
            assert cs.zi[pt.partner].zw == (za.conjugate(), zb.conjugate())
            assert cs.zi[pt.partner].partner == i
        if case == "rotation":
            assert cs.crit == ()
            assert {pt.zw for pt in cs.zi} == {(1j, 0j), (-1j, 0j)}
            assert all(pt.in_support for pt in cs.zi)
            assert ctx.bundle.dim_v == 0
        else:
            assert len(cs.zi) == 24  # the 5 x 5 grid less its real pair
            assert not any(pt.in_support for pt in cs.zi)

    def test_half_pair_instance(self, half_pair_ctx):
        cs = half_pair_ctx.cs
        assert all(not pt.in_support for pt in cs.zi)
        hits = [c for c in cs.crit if abs(c.value - 2.0) <= 1e-9]
        assert len(hits) == 1 and hits[0].in_sigma_n


class TestFunctionConstruction:
    def test_lift_constant_is_unit(self, w1_ctx):
        one = w1_ctx.lift(BiPoly.constant(1.0))
        assert np.allclose(one.values, 1.0)
        for jet in one.crit_jets:
            assert np.allclose(jet.coeffs, Jet.unit(jet.shape).coeffs)

    def test_lift_definitizer_lands_in_ideal(self, w2_ctx):
        pz = BiPoly.from_univariate(w2_ctx.pair.p, "z")
        fn = w2_ctx.lift(pz)
        jet = fn.crit_jets[0]
        assert jet.box_part().is_zero(1e-14)
        assert jet.entry(2, 0) == pytest.approx(1.0)  # leading derivative slot

    def test_lift_values(self, w1_ctx):
        fn = w1_ctx.lift(shift_poly(0.0))
        idx = list(w1_ctx.cs.noncritical).index(1 + 2j)
        assert fn.values[idx] == pytest.approx(1 + 2j)

    def test_delta_and_errors(self, w1_ctx):
        shape = w1_ctx.cs.crit[0].shape
        fn = w1_ctx.delta(3j, Jet.unit(shape))
        assert np.allclose(fn.values, 0.0)
        with pytest.raises(DomainMismatchError):
            w1_ctx.delta(5j, Jet.unit(shape))
        with pytest.raises(ShapeMismatchError):
            w1_ctx.delta(3j, Jet.unit(JetShape(2, 2, A_KIND)))

    def test_delta_idempotent(self, w2_ctx):
        e = Jet.unit(w2_ctx.cs.crit[0].shape)
        fn = w2_ctx.delta(0.0, e)
        prod = fn * fn
        assert np.allclose(prod.crit_jets[0].coeffs, e.coeffs)

    def test_zero_delta(self, w2_ctx):
        fn = w2_ctx.delta(0.0, Jet.zeros(w2_ctx.cs.crit[0].shape))
        assert fn.norm() == 0.0


class TestFunctionAlgebra:
    def test_unit_neutral(self, w1_ctx):
        rng = np.random.default_rng(50)
        fn = w1_ctx.lift(BiPoly({(1, 1): 2.0, (0, 0): 1j}))
        prod = fn * w1_ctx.one()
        assert np.allclose(prod.values, fn.values)

    def test_definitizer_sum_squares_to_zero_at_critical_points(self, w2_ctx):
        pz = BiPoly.from_univariate(w2_ctx.pair.p, "z")
        qw = BiPoly.from_univariate(w2_ctx.pair.q, "w")
        fn = w2_ctx.lift(pz + qw)
        sq = fn * fn
        assert sq.crit_jets[0].is_zero(1e-14)

    def test_sharp_involution(self, zi_ctx):
        rng = np.random.default_rng(51)
        fn = zi_ctx.lift(BiPoly({(1, 0): 1 + 1j, (0, 1): -2j}))
        assert np.allclose(fn.sharp().sharp().zi_jets[0].coeffs, fn.zi_jets[0].coeffs)

    def test_sharp_swaps_conjugate_pairs(self, zi_ctx):
        cs = zi_ctx.cs
        i_plus = next(i for i, pt in enumerate(cs.zi) if pt.zw == (1j, 0j))
        fn = zi_ctx.delta((1j, 0.0), Jet(cs.zi[i_plus].shape, [2 + 1j]))
        sharped = fn.sharp()
        i_minus = cs.zi[i_plus].partner
        assert sharped.zi_jets[i_minus].entry(0, 0) == pytest.approx(2 - 1j)
        assert sharped.zi_jets[i_plus].is_zero()

    def test_inverse_round_trip(self, w1_ctx):
        fn = w1_ctx.lift(shift_poly(10.0))
        inv = fn.inverse()
        prod = fn * inv
        one = w1_ctx.one()
        assert np.allclose(prod.values, one.values, atol=1e-12)
        for a, b in zip(prod.crit_jets, one.crit_jets):
            assert np.allclose(a.coeffs, b.coeffs, atol=1e-12)

    def test_inverse_carries_offending_point(self, w2_ctx):
        fn = w2_ctx.delta(0.0, Jet.zeros(w2_ctx.cs.crit[0].shape))
        with pytest.raises(NotInvertibleError) as exc:
            fn.inverse()
        assert exc.value.point == 0j


class TestDecomposition:
    def test_interpolant_round_trip(self, w1_ctx):
        s0 = BiPoly({(0, 0): 1.5 + 1j})  # admissible: deg < (1, 1)
        s = interpolant(w1_ctx, w1_ctx.lift(s0))
        assert abs(s.coeff(0, 0) - (1.5 + 1j)) <= 1e-12

    def test_w2_interpolant(self, w2_ctx):
        coeffs = [0.3, -1.0, 2.5, 1j]
        fn = w2_ctx.delta(0.0, Jet(w2_ctx.cs.crit[0].shape, coeffs))
        s = interpolant(w2_ctx, fn)
        assert abs(s.coeff(0, 0) - 0.3) <= 1e-12
        assert abs(s.coeff(1, 0) - (-1.0)) <= 1e-12
        assert s.degree_z <= 1 and s.degree_w == 0

    def test_ideal_functions_interpolate_to_zero(self, w2_ctx):
        fn = w2_ctx.delta(
            0.0, Jet.from_entries(w2_ctx.cs.crit[0].shape, {(2, 0): 3.0, (0, 1): -1j})
        )
        s = interpolant(w2_ctx, fn)
        assert not s or s.max_abs_coeff() <= 1e-13

    def test_remainder_of_lift_vanishes(self, w1_ctx):
        s0 = BiPoly({(1, 0): 1.0, (0, 1): -2.0})
        w, g = remainder(w1_ctx, w1_ctx.lift(s0), s0)
        assert w.shape == (2,) and np.abs(w).max() <= 1e-10
        assert not w1_ctx.layout.critical.any() and not g.any()

    def test_w1_disk_remainder_values(self, w1_ctx):
        fn = w1_ctx.indicator(Disk(1 + 2j, 1.0))
        s, w, g = decompose(w1_ctx, fn)
        centers = w1_ctx.spectral.centers
        assert not s or s.max_abs_coeff() <= 1e-13
        assert w[centers.index(1 + 2j)] == pytest.approx(0.5)
        assert w[centers.index(-1 + 3j)] == pytest.approx(0.0, abs=1e-14)
        assert not w1_ctx.layout.critical.any() and not g.any()

    def test_not_in_ideal(self, w2_ctx):
        one = w2_ctx.one()
        with pytest.raises(NotInIdealError):
            remainder(w2_ctx, one, BiPoly())


class TestApply:
    def test_polynomials_evaluate_directly(self, w1_ctx):
        s0 = BiPoly({(2, 0): 1.0, (1, 1): -1j, (0, 0): 0.5})
        lhs = w1_ctx.apply(w1_ctx.lift(s0))
        rhs = w1_ctx.polynomial_at_pair(s0)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_w2_exponential_jet(self, w2_ctx):
        jet = Jet(w2_ctx.cs.crit[0].shape, [1.0, 1.0, 0.5, 0.0])
        out = w2_ctx.apply(w2_ctx.delta(0.0, jet))
        assert np.array_equal(out, np.eye(2) + w2_ctx.pair.N)

    def test_w1_disk_indicator(self, w1_ctx):
        P = w1_ctx.spectral_projection(Disk(1 + 2j, 1.0))
        assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zi_identity_function(self, zi_ctx):
        out = zi_ctx.apply(zi_ctx.lift(shift_poly(0.0)))
        assert np.allclose(out, zi_ctx.pair.N, atol=1e-12)

    def test_half_pair_unit_applies_to_identity(self, half_pair_ctx):
        out = half_pair_ctx.apply(half_pair_ctx.one())
        assert np.allclose(out, np.eye(2), atol=1e-12)

    def test_rejects_function_from_other_context(self, w1_ctx, w2_ctx):
        with pytest.raises(DomainMismatchError):
            w1_ctx.apply(w2_ctx.one())


class TestCachedState:
    """What a context keeps between applies stays fixed."""

    def test_cached_arrays_are_read_only(self, zi_ctx, w1_ctx):
        for ctx in (zi_ctx, w1_ctx):
            ctx.apply(ctx.lift(shift_poly(0.5) * shift_poly(-1.0)))
            _, V1, V2 = ctx.bundle.coords
            cached = [V1.RR, V2.RR, ctx.bundle.coords[0].TT, ctx.spectral.Q, ctx.spectral.labels]
            cached += [ctx.theta_n, *ctx.pair.poly_values]
            cached += [getattr(V, a) for V in ctx.bundle.coords for a in ("outer", "left")]
            cached += [V.R_pinv for V in (V1, V2)]
            assert not any(arr.flags.writeable for arr in cached)

    def test_mutating_a_result_leaves_the_next_apply_unchanged(
        self, w1_ctx, w2_ctx, zi_ctx, half_pair_ctx
    ):
        for ctx in (w1_ctx, w2_ctx, zi_ctx, half_pair_ctx):
            for fn in (ctx.one(), ctx.lift(shift_poly(1.0) * shift_poly(2j))):
                out = ctx.apply(fn)
                expected = out.copy()
                out[...] = 99.0
                assert np.array_equal(ctx.apply(fn), expected)
            s = shift_poly(0.5)
            poly = ctx.polynomial_at_pair(s)
            expected = poly.copy()
            poly[...] = -7.0
            assert np.array_equal(ctx.polynomial_at_pair(s), expected)

    def test_build_makes_one_layout(self, monkeypatch, w1_ctx, zi_ctx, half_pair_ctx):
        """build resets the support arrays of its first layout instead of
        making a second, and the result equals a fresh one array by array."""
        made = []
        init = Layout.__init__

        def counting(self, cs):
            made.append(cs)
            init(self, cs)

        def same(a, b):
            if isinstance(a, np.ndarray):
                return (a.dtype == b.dtype and np.array_equal(a, b)
                        and not a.flags.writeable)
            if isinstance(a, tuple):
                return len(a) == len(b) and all(map(same, a, b))
            return a == b

        monkeypatch.setattr(Layout, "__init__", counting)
        lattice, _ = lattice_pair(0, 8, ((-3.75, 1.0), (-3.25, 0.75)))
        contexts = []
        for pair in (w1_ctx.pair, zi_ctx.pair, half_pair_ctx.pair, lattice):
            made.clear()
            ctx = CalculusContext.build(pair)
            assert len(made) == 1
            assert ctx.layout is ctx.cs.layout
            fresh = Layout(ctx.cs)
            assert vars(ctx.layout).keys() == vars(fresh).keys()
            for name, value in vars(fresh).items():
                assert same(getattr(ctx.layout, name), value), name
            contexts.append(ctx)
        # the support arrays were reset: some jets are off sigma_N
        assert not all(ctx.layout.supported.all() for ctx in contexts)

    def test_conditioning_gate_runs_at_build(self):
        # p = z(z - 1) gives the centered grid {-1/2, 1/2} x {0}: condition 2.
        # The build applies the unit jets to decide membership in sigma(N),
        # so the gate of the interpolation system raises there
        J = np.diag([1.0, -1.0]).astype(complex)
        N = np.diag([0.0, 1.0]).astype(complex)
        p, q = RealPoly([0, -1, 1]), RealPoly([0, 1])
        strict = KreinSpace(J, DEFAULT_TOL.with_overrides(cond=1.5))
        for _ in range(2):
            with pytest.raises(ConditioningError, match="condition number 2.00e"):
                CalculusContext.build(DefinitizablePair.from_normal(strict, N, p=p, q=q))
        ctx = CalculusContext.build(DefinitizablePair.from_normal(KreinSpace(J), N, p=p, q=q))
        assert np.allclose(ctx.apply(ctx.one()), np.eye(2), atol=1e-12)


class TestProjections:
    def test_riesz_off_spectrum_vanishes(self, w1_ctx):
        assert np.allclose(w1_ctx.riesz_projection(3j), 0.0, atol=1e-12)

    def test_riesz_w2_total(self, w2_ctx):
        assert np.array_equal(w2_ctx.riesz_projection(0.0), np.eye(2))

    def test_riesz_zi_pair(self, zi_ctx):
        P = zi_ctx.riesz_projection((1j, 0.0))
        N = zi_ctx.pair.N
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.allclose(P @ N, N @ P, atol=1e-12)
        # range is the eigenspace at xi + i*eta = i
        U, sv, _ = np.linalg.svd(P)
        basis = U[:, sv > 0.5]
        assert basis.shape[1] == 1
        comp = basis.conj().T @ N @ basis
        assert comp[0, 0] == pytest.approx(1j)

    def test_total_projection_is_identity(self, w1_ctx):
        P = w1_ctx.spectral_projection(Disk(0.0, 10.0))
        assert np.allclose(P, np.eye(2), atol=1e-12)

    def test_zi_riesz_pair_are_mutual_adjoints(self, zi_ctx):
        P_plus = zi_ctx.riesz_projection((1j, 0.0))
        P_minus = zi_ctx.riesz_projection((-1j, 0.0))
        assert np.allclose(zi_ctx.space.adjoint(P_plus), P_minus, atol=1e-12)
        assert np.allclose(P_plus + P_minus, np.eye(2), atol=1e-12)

    def test_zi_region_lights_whole_conjugate_pair(self, zi_ctx):
        # region membership is decided by the pair representative, so a disk
        # around one member selects both and the projection is selfadjoint
        P = zi_ctx.spectral_projection(Disk(1j, 0.5))
        assert np.allclose(P, np.eye(2), atol=1e-12)
        assert np.allclose(zi_ctx.space.adjoint(P), P, atol=1e-12)

    def test_empty_projection_is_zero(self, w1_ctx):
        P = w1_ctx.spectral_projection(Disk(100.0, 1.0))
        assert np.allclose(P, 0.0, atol=1e-12)

    def test_rect_region(self, w1_ctx):
        P = w1_ctx.spectral_projection(Rect((0.0, 2.0), (1.0, 2.6)))
        assert np.allclose(P, np.diag([1.0, 0.0]), atol=1e-12)

    def test_additivity_over_disjoint_union(self, w1_ctx):
        d1, d2 = Disk(1 + 2j, 0.5), Disk(-1 + 3j, 0.5)
        P1 = w1_ctx.spectral_projection(d1)
        P2 = w1_ctx.spectral_projection(d2)
        P = w1_ctx.spectral_projection(RegionUnion((d1, d2)))
        assert np.allclose(P, P1 + P2, atol=1e-12)
        assert np.allclose(P1 @ P2, 0.0, atol=1e-12)

    def test_krein_selfadjoint(self, w2_ctx):
        P = w2_ctx.spectral_projection(Disk(0.0, 1.0))
        assert np.allclose(w2_ctx.space.adjoint(P), P, atol=1e-12)
        assert np.allclose(P @ P, P, atol=1e-12)

    def test_boundary_through_critical_spectral_point(self, w2_ctx):
        with pytest.raises(BoundaryError):
            w2_ctx.spectral_projection(Disk(0.5, 0.5))

    def test_boundary_near_noncritical_point_is_fine(self, w1_ctx):
        # only critical points in the spectrum constrain the boundary
        P = w1_ctx.spectral_projection(Disk(1 + 2j, 2.0 ** 0.5))
        assert P.shape == (2, 2)


class TestSpectrum:
    def test_w1(self, w1_ctx):
        assert sorted(w1_ctx.spectrum(), key=lambda z: z.real) == [
            pytest.approx(-1 + 3j),
            pytest.approx(1 + 2j),
        ]

    def test_w2(self, w2_ctx):
        assert w2_ctx.spectrum() == (0j,)

    def test_zi_contributions(self, zi_ctx):
        spec = sorted(zi_ctx.spectrum(), key=lambda z: z.imag)
        assert spec == [pytest.approx(-1j), pytest.approx(1j)]

    def test_half_pair_excludes_unpaired_point(self, half_pair_ctx):
        spec = half_pair_ctx.spectrum()
        assert sorted(spec, key=lambda z: z.real) == [
            pytest.approx(1j),
            pytest.approx(2.0 + 0j),
        ]


class TestInvertibility:
    def test_unit_invertible(self, w1_ctx):
        rep = w1_ctx.check_invertible(w1_ctx.one())
        assert rep.invertible and rep.certificate_residual <= 1e-10

    def test_resolvent(self, w1_ctx):
        rep = w1_ctx.check_invertible(w1_ctx.lift(shift_poly(7.0)))
        assert rep.invertible

    def test_vanishing_function(self, w1_ctx):
        rep = w1_ctx.check_invertible(w1_ctx.lift(shift_poly(1 + 2j)))
        assert not rep.invertible

    def test_half_pair_ignores_off_support_jets(self, half_pair_ctx):
        # shift by i: vanishes at the off-support pair point but nowhere on
        # the support, so the operator is still invertible
        rep = half_pair_ctx.check_invertible(half_pair_ctx.lift(shift_poly(-1j)))
        assert rep.invertible


def test_same_operator_under_two_definitizing_choices(w1, capsys):
    # recorded experiment: the calculus built from a different valid pair
    # (here q scaled and squared) applied to the same polynomial function
    space = w1.space
    ctx1 = CalculusContext.build(w1.pair)
    q2 = RealPoly([3.0, -1.0]) * RealPoly([3.0, -1.0])
    pair2 = DefinitizablePair.from_normal(space, w1.pair.N, p=w1.pair.p, q=q2)
    ctx2 = CalculusContext.build(pair2)
    s0 = BiPoly({(1, 0): 1.0, (0, 1): 1j, (1, 1): 0.25})
    out1 = ctx1.apply(ctx1.lift(s0))
    out2 = ctx2.apply(ctx2.lift(s0))
    deviation = np.linalg.norm(out1 - out2)
    print(f"definitizing-choice deviation: {deviation:.3e}")
    assert np.isfinite(deviation)


class TestFunctionFiles:
    def test_bipoly_kind(self, w1_ctx):
        fn = function_from_dict(
            w1_ctx, {"kind": "bipoly", "coeffs": [[1, 0, 1.0, 0.0], [0, 1, 0.0, 1.0]]}
        )
        out = w1_ctx.apply(fn)
        assert np.allclose(out, w1_ctx.pair.N, atol=1e-10)

    def test_indicator_kind(self, w1_ctx):
        fn = function_from_dict(
            w1_ctx,
            {"kind": "indicator", "region": {"type": "disk", "center": [1, 2], "radius": 1.0}},
        )
        assert np.allclose(w1_ctx.apply(fn), np.diag([1.0, 0.0]), atol=1e-12)

    def test_delta_kind(self, w2_ctx):
        jet = Jet(w2_ctx.cs.crit[0].shape, [1.0, 1.0, 0.5, 0.0]).to_dict()
        fn = function_from_dict(w2_ctx, {"kind": "delta", "at": [0.0, 0.0], "jet": jet})
        assert np.array_equal(w2_ctx.apply(fn), np.eye(2) + w2_ctx.pair.N)

    def test_table_kind(self, w1_ctx):
        fn = function_from_dict(
            w1_ctx,
            {
                "kind": "table",
                "values": [
                    {"z": [1.0, 2.0], "value": [1.0, 0.0]},
                    {"z": [-1.0, 3.0], "value": [0.0, 0.0]},
                ],
            },
        )
        assert np.allclose(w1_ctx.apply(fn), np.diag([1.0, 0.0]), atol=1e-12)

    def test_table_rows_match_like_match_point(self, w1_ctx):
        # rows within the cluster radius match; a later row for the same
        # point overrides an earlier one
        eps = 0.5 * w1_ctx.cs.radius
        fn = function_from_dict(
            w1_ctx,
            {
                "kind": "table",
                "values": [
                    {"z": [1.0 + eps, 2.0], "value": [5.0, 0.0]},
                    {"z": [-1.0, 3.0 - eps], "value": [0.0, 0.0]},
                    {"z": [1.0, 2.0 + eps], "value": [1.0, 0.0]},
                ],
            },
        )
        assert np.allclose(w1_ctx.apply(fn), np.diag([1.0, 0.0]), atol=1e-12)
        with pytest.raises(DomainMismatchError):
            function_from_dict(
                w1_ctx, {"kind": "table", "values": [{"z": [1.0, 2.1], "value": [1.0, 0.0]}]}
            )

    def test_match_points_agrees_with_match_point(self):
        rng = np.random.default_rng(60)
        targets = [0.0, 2.0, 2.0, 1j, 3.0 + 0j]  # 1.0 is equally close to 0 and 2
        values = np.concatenate([[1.0, 2.0, 1.5, 10.0], rng.standard_normal(30)])
        for radius in (0.0, 0.5, 1.0, 2.5):
            expected = [match_point(v, targets, radius) for v in values]
            assert match_points(values, targets, radius) == expected
        assert match_points(values, [], 1.0) == [None] * len(values)
        assert match_points(np.zeros(0, complex), targets, 1.0) == []

    def test_unknown_kind(self, w1_ctx):
        with pytest.raises(DomainMismatchError):
            function_from_dict(w1_ctx, {"kind": "mystery"})


@pytest.fixture(scope="module")
def deep_pair_ctx():
    """The rotation of ``zi_pair`` under p = z (z^2 + 1)^2, q = z^2: two
    conjugate zero pairs with 2 x 2 box jets and a critical point at 0."""
    J = np.array([[0, 1], [1, 0]], dtype=complex)
    A = np.array([[0, -1], [1, 0]], dtype=complex)
    square = RealPoly([1, 0, 1]) * RealPoly([1, 0, 1])
    pair = DefinitizablePair.from_normal(
        KreinSpace(J), A, p=RealPoly([0, 1]) * square, q=RealPoly([0, 0, 1])
    )
    return CalculusContext.build(pair)


def _random_coords(ctx, rng):
    size = ctx.layout.size
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


class TestFlatForm:
    """The coordinate vector against per-point Jet arithmetic."""

    def test_algebra_matches_jet_arithmetic(
        self, contexts100, zi_ctx, half_pair_ctx, deep_pair_ctx
    ):
        rng = np.random.default_rng(70)
        for ctx in contexts100 + [zi_ctx, half_pair_ctx, deep_pair_ctx]:
            cs = ctx.cs
            f = CalculusFunction(cs, _random_coords(ctx, rng))
            g = CalculusFunction(cs, _random_coords(ctx, rng))
            prod, sharp = f * g, g.sharp()
            inv = (f + 10.0 * ctx.one()).inverse()
            shifted = [j + 10.0 * Jet.unit(j.shape) for j in f.crit_jets + f.zi_jets]
            assert np.array_equal(prod.values, f.values * g.values)
            assert np.array_equal(sharp.values, g.values.conj())
            assert np.array_equal(inv.values, 1.0 / (f.values + 10.0))
            jets = zip(
                f.crit_jets + f.zi_jets, g.crit_jets + g.zi_jets, shifted,
                prod.crit_jets + prod.zi_jets, inv.crit_jets + inv.zi_jets,
            )
            for a, b, a_shift, ab, a_inv in jets:
                assert np.array_equal(ab.coeffs, (a * b).coeffs)
                assert np.array_equal(a_inv.coeffs, a_shift.inverse().coeffs)
            for jet, sharp_jet in zip(g.crit_jets, sharp.crit_jets):
                assert np.array_equal(sharp_jet.coeffs, jet.conj().coeffs)
            for pt, sharp_jet in zip(cs.zi, sharp.zi_jets):
                assert np.array_equal(sharp_jet.coeffs, g.zi_jets[pt.partner].conj().coeffs)
        assert any(len(ctx.cs.zi) for ctx in contexts100 + [deep_pair_ctx])

    def test_full_table_reads_back_row_by_row(
        self, contexts100, zi_ctx, deep_pair_ctx
    ):
        rng = np.random.default_rng(71)

        def value():
            return [float(v) for v in rng.standard_normal(2)]

        def jet(shape):
            entries = [[k, l, *value()] for k, l in shape.indices]
            return {"m": shape.m, "n": shape.n, "kind": shape.kind, "entries": entries}

        for ctx in contexts100 + [zi_ctx, deep_pair_ctx]:
            cs = ctx.cs
            table = {
                "kind": "table",
                "values": [{"z": [z.real, z.imag], "value": value()} for z in cs.noncritical],
                "crit": [
                    {"z": [c.value.real, c.value.imag], "jet": jet(c.shape)} for c in cs.crit
                ],
                "zi": [
                    {"zw": [[z.real, z.imag] for z in pt.zw], "jet": jet(pt.shape)}
                    for pt in cs.zi
                ],
            }
            fn = function_from_dict(ctx, table)
            for row, v in zip(table["values"], fn.values):
                assert v == complex(*row["value"])
            for row, got in zip(table["crit"] + table["zi"], fn.crit_jets + fn.zi_jets):
                assert np.array_equal(got.coeffs, Jet.from_dict(row["jet"]).coeffs)

    def test_coordinates_are_checked_and_read_only(self, deep_pair_ctx):
        cs = deep_pair_ctx.cs
        with pytest.raises(DomainMismatchError):
            CalculusFunction(cs, np.zeros(deep_pair_ctx.layout.size + 1))
        coords = np.arange(deep_pair_ctx.layout.size, dtype=complex)
        fn = CalculusFunction(cs, coords)
        coords[0] = 99.0
        assert fn.coords[0] == 0.0 and not fn.coords.flags.writeable
        assert not fn.values.flags.writeable


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "bipoly"},
        {"kind": "bipoly", "coeffs": [[1, 0, 1.0]]},
        {"kind": "delta", "at": [1]},
        {"kind": "delta", "at": [0.0, 3.0]},
        {"kind": "delta", "at": [0.0, 3.0], "jet": {"m": 1, "n": 1, "kind": "c", "entries": []}},
        {"kind": "table", "values": [{"z": [1]}]},
        {"kind": "table", "values": [{"z": [1.0, 2.0]}]},
        {"kind": "table", "crit": [{"z": [0.0, 3.0]}]},
        {"kind": "table", "values": 3},
        {"kind": "indicator", "region": {"type": "disk"}},
        {"kind": "indicator", "region": {"type": "rect", "x": [0.0], "y": [1.0, 2.0]}},
        {"kind": "indicator"},
        [1, 2],
    ],
)
def test_malformed_function_files_raise_domain_mismatch(w1_ctx, data):
    with pytest.raises(DomainMismatchError):
        function_from_dict(w1_ctx, data)


class TestCompiledApply:
    """The compiled apply against the reference path."""

    def test_matches_reference_path(
        self, w1_ctx, w2_ctx, zi_ctx, half_pair_ctx, deep_pair_ctx, contexts100
    ):
        rng = np.random.default_rng(61)
        ctxs = [w1_ctx, w2_ctx, zi_ctx, half_pair_ctx, deep_pair_ctx] + contexts100
        for ctx in ctxs:
            coords = _random_coords(ctx, rng)
            for fn in (CalculusFunction(ctx.cs, coords), ctx.one()):
                ref = reference_apply(ctx, fn)
                assert fro(ctx.apply(fn) - ref) <= 1e-10 * max(1.0, fro(ref))
        # zero pairs, deep Jordan jets, r < n and critical atoms all occur
        assert any(ctx.cs.zi for ctx in ctxs)
        assert max(sh.size for ctx in ctxs for sh in ctx.layout.shapes) >= 6
        assert any(ctx.bundle.dim_v < ctx.space.n for ctx in ctxs)
        assert any(ctx.layout.critical.any() for ctx in ctxs)

    def test_apply_many_matches_apply(self, zi_ctx, half_pair_ctx, contexts100):
        rng = np.random.default_rng(67)
        for ctx in [zi_ctx, half_pair_ctx] + contexts100:
            fns = [CalculusFunction(ctx.cs, _random_coords(ctx, rng)) for _ in range(3)]
            fns.append(ctx.one())
            ops = ctx.apply_many(fns)
            assert ops.shape == (4, ctx.space.n, ctx.space.n)
            for op, fn in zip(ops, fns):
                ref = ctx.apply(fn)
                assert fro(op - ref) <= 1e-13 * max(1.0, fro(ref))

    def test_apply_many_is_batch_invariant(self, zi_ctx, half_pair_ctx, contexts100):
        # each operator of a batch is, to the bit, the one a single apply
        # returns: phi(N) = s(A, B) + T D T* cancels two parts far larger
        # than the result, so batched rounding would show
        rng = np.random.default_rng(68)
        for ctx in [zi_ctx, half_pair_ctx] + contexts100:
            fns = [CalculusFunction(ctx.cs, _random_coords(ctx, rng)) for _ in range(3)]
            fns.append(ctx.one())
            for op, fn in zip(ctx.apply_many(fns), fns):
                assert np.array_equal(op, ctx.apply(fn))

    def test_tampered_tt_fails_certificate_on_first_apply(self, w1_ctx):
        bundle = w1_ctx.bundle
        V = bundle.coords[0]
        bump = 1e-3 * fro(V.TT) * np.array([[0.0, 1.0], [1.0, 0.0]])
        coords = (dataclasses.replace(V, TT=V.TT + bump), *bundle.coords[1:])
        tampered = dataclasses.replace(bundle, coords=coords)
        ctx = CalculusContext(w1_ctx.pair, tampered, w1_ctx.spectral, w1_ctx.cs, w1_ctx.theta_n)
        for _ in range(2):
            with pytest.raises(NotInCommutantError):
                ctx.apply(ctx.one())
        # the public expand keeps its own check
        with pytest.raises(NotInCommutantError):
            tampered.expand(np.diag([1.0, 0.0]))

    def test_vanishing_denominator_raises(self):
        # 5e-7 lies beyond the cluster radius 2e-7 of the critical point 0,
        # where p + q = 1e-6 * 5e-7 is below tol.abs; the build's apply of
        # the unit jets divides off p + q and raises
        J = np.eye(2, dtype=complex)
        N = np.diag([5e-7, 1.0]).astype(complex)
        pair = DefinitizablePair.from_normal(
            KreinSpace(J), N, p=RealPoly([0, 1e-6]), q=RealPoly([0, 1])
        )
        with pytest.raises(DomainMismatchError, match="behaves critically"):
            CalculusContext.build(pair)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("strength", [0.4, 1.0])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_scrambled_jordan_cell_stays_in_sigma(k, strength, seed):
    """The critical point 0 of a scrambled nilpotent k-cell lies in sigma(N):
    its Riesz idempotent has rank k. For k >= 3, eigvals(N) scatters there
    beyond the cluster radius, so no eigenvalue match can decide this."""
    pair = jordan_pair(k, strength, seed)
    ctx = CalculusContext.build(pair)
    assert ctx.cs.crit[ctx.cs.locate([0.0])[0]].in_sigma_n
    assert len(ctx.spectrum()) == 3
    assert run_suite(Instance("jordan", pair.space, pair)).passed


@pytest.mark.slow
@pytest.mark.parametrize("n", [48, 96])
@pytest.mark.parametrize("quadratics", [(), ((0.25, 0.5), (-1.75, 1.0))])
def test_large_lattice_build_matches_eigvals_and_schur(n, quadratics):
    """Membership in sigma(N) from the ranks of the build's Riesz
    idempotents, against clustering eigvals(N), which is accurate here: the
    lattice spectrum is simple. The transferred spectrum against scipy's
    Schur form."""
    for seed in range(3):
        pair, spectrum = lattice_pair(seed, n, quadratics)
        ctx = CalculusContext.build(pair)
        cs = ctx.cs
        assert ctx.bundle.dim_v == n - 1
        sigma, _ = cluster_points(np.linalg.eigvals(pair.N), cs.radius)
        assert [c.in_sigma_n for c in cs.crit] == [
            hit is not None for hit in match_points(cs.crit_values, sigma, cs.radius)
        ]
        assert any(c.in_sigma_n and not c.spectral for c in cs.crit)
        for pt in cs.zi:
            conj = np.conj(pt.zw[0]) + 1j * np.conj(pt.zw[1])
            hits = match_points([pt.location, conj], sigma, cs.radius)
            assert pt.in_support == (None not in hits)
        assert_same_set(cs.support_values(), spectrum, 1e-9)
        schur = np.diag(scipy.linalg.schur(ctx.theta_n, output="complex")[0])
        assert_same_set(diagonalize(ctx.theta_n).centers, schur, 1e-12)


@pytest.fixture(scope="module")
def jordan3_ctx():
    """A nilpotent 3-cell scrambled by a J-unitary (``tests/fixtures``)."""
    return CalculusContext.build(parse_instance(FIXTURES / "jordan3_scrambled.json").pair)


@pytest.fixture(scope="module")
def recipe_ctx():
    """The benchmark recipe's n = 12 instance with 24 zero pairs."""
    return CalculusContext.build(parse_instance(load_recipe().instance(3, 12, 2)[0]).pair)


def _points(ctx):
    """Every critical point and zero pair, in layout order."""
    return [c.value for c in ctx.cs.crit] + [pt.zw for pt in ctx.cs.zi]


class TestKeptMaps:
    """The Riesz idempotents kept from build and the lift compiled per
    coefficient shape, against the paths they replace."""

    def test_riesz_projection_is_the_kept_idempotent(
        self, w2_ctx, zi_ctx, deep_pair_ctx, jordan3_ctx, recipe_ctx
    ):
        for ctx in (w2_ctx, zi_ctx, deep_pair_ctx, jordan3_ctx, recipe_ctx):
            kept = ctx.riesz.copy()
            for at in _points(ctx):
                P = ctx.riesz_projection(at)
                assert np.array_equal(P, ctx.apply(ctx.unit_jet(at)))
                assert P.flags.writeable
                P[...] = 7.0
            assert np.array_equal(ctx.riesz, kept) and not ctx.riesz.flags.writeable
        # kept idempotents of zero pairs and of a scrambled Jordan cell are
        # read, deep_pair_ctx's critical point 0 and the recipe's 24 zero
        # pairs are applied
        assert zi_ctx.layout.supported.all()
        assert list(deep_pair_ctx.layout.supported) == [False, True, True]
        assert jordan3_ctx.layout.supported[jordan3_ctx.cs.locate([0.0])[0]]
        assert len(recipe_ctx.cs.zi) == 24

    def test_riesz_off_the_support_is_applied(self, w1_ctx, w2_ctx, monkeypatch):
        for ctx, at, applies in ((w1_ctx, 3j, 1), (w2_ctx, 0.0, 0)):
            calls = []
            apply = ctx.apply
            monkeypatch.setattr(ctx, "apply", lambda fn: calls.append(fn) or apply(fn))
            ctx.riesz_projection(at)
            assert len(calls) == applies

    def test_lift_matches_taylor_shift(self, contexts100, recipe_ctx, jordan3_ctx, deep_pair_ctx):
        rng = np.random.default_rng(81)
        for ctx in contexts100 + [recipe_ctx, jordan3_ctx, deep_pair_ctx]:
            for shape in ((1, 1), (3, 3), (2, 5), (5, 2)):
                C = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                got = ctx.lift(BiPoly.from_dense(C)).coords
                ref = taylor_lift(ctx, C)
                assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            stack = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
            ref = taylor_lift(ctx, stack)
            assert np.abs(ctx._lift_coords(stack) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_one_compiled_lift_per_shape(self, w2, monkeypatch):
        ctx = CalculusContext.build(w2.pair)
        assert ctx._lifts == {}
        calls = []
        for module, name in ((calculus, "taylor_table"), (bipoly, "taylor_shift")):
            kernel = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, _k=kernel, **kw: calls.append(a) or _k(*a, **kw)
            )
        s = BiPoly({(2, 1): 1.0, (0, 0): 2.0})
        first = ctx.lift(s).coords
        made = len(calls)
        assert made > 0
        again = ctx.lift(3.0 * s).coords
        assert len(calls) == made
        assert np.allclose(again, 3.0 * first, rtol=1e-15, atol=0.0)
        ctx.lift(BiPoly.constant(1.0))
        assert list(ctx._lifts) == [(3, 2), (1, 1)]
        for M in ctx._lifts.values():
            assert not M.flags.writeable and M.shape[1] == ctx.layout.size


class TestTableReader:
    """Table rows go straight into coordinates, with the errors of the
    parse that built a Jet per row."""

    @staticmethod
    def jet(shape, entries):
        return {"m": shape.m, "n": shape.n, "kind": shape.kind,
                "entries": [[k, l, v.real, v.imag] for (k, l), v in entries]}

    def test_later_row_replaces_the_whole_segment(self, deep_pair_ctx):
        ctx = deep_pair_ctx
        cs, L = ctx.cs, ctx.layout
        crit, pair = cs.crit[0], cs.zi[1]
        zw = [[z.real, z.imag] for z in pair.zw]
        rows = {
            "kind": "table",
            "crit": [
                {"z": [0.0, 0.0], "jet": self.jet(crit.shape, [((0, 0), 1.0), ((1, 0), 2j)])},
                {"z": [0.0, 0.0], "jet": self.jet(crit.shape, [((0, 1), 3.0)])},
            ],
            "zi": [
                {"zw": zw, "jet": self.jet(pair.shape, [((1, 1), 4.0), ((0, 0), 5.0)])},
                {"zw": zw, "jet": self.jet(pair.shape, [((1, 0), 6.0), ((1, 0), 7.0)])},
            ],
        }
        fn = function_from_dict(ctx, rows)
        expected = np.zeros(L.size, dtype=complex)
        expected[L.offsets[0] + crit.shape.position(0, 1)] = 3.0
        expected[L.offsets[2] + pair.shape.position(1, 0)] = 7.0
        assert np.array_equal(fn.coords, expected)
        # delta reads its jet the same way
        delta = function_from_dict(
            ctx, {"kind": "delta", "at": zw, "jet": rows["zi"][0]["jet"]}
        )
        assert np.array_equal(
            delta.coords[L.segment(2)],
            Jet.from_entries(pair.shape, {(1, 1): 4.0, (0, 0): 5.0}).coeffs,
        )

    @pytest.mark.parametrize("kind", ["table", "delta"])
    def test_entry_outside_the_shape_raises_shape_mismatch(self, w2_ctx, kind):
        shape = w2_ctx.cs.crit[0].shape
        jet = self.jet(shape, [((0, 0), 1.0), ((1, 1), 2.0)])
        data = (
            {"kind": "table", "crit": [{"z": [0.0, 0.0], "jet": jet}]}
            if kind == "table" else {"kind": "delta", "at": [0.0, 0.0], "jet": jet}
        )
        with pytest.raises(ShapeMismatchError):
            function_from_dict(w2_ctx, data)

    def test_malformed_rows_raise_domain_mismatch(self, zi_ctx):
        pair = zi_ctx.cs.zi[0]
        jet = self.jet(pair.shape, [((0, 0), 1.0)])
        one_point = {"kind": "table", "zi": [{"zw": [[0.0, 1.0]], "jet": jet}]}
        no_entries = {"kind": "table", "zi": [
            {"zw": [[z.real, z.imag] for z in pair.zw], "jet": {"m": 1, "n": 1, "kind": "b"}}
        ]}
        for data in (one_point, no_entries):
            with pytest.raises(DomainMismatchError):
                function_from_dict(zi_ctx, data)
