"""The jet algebra on coefficient arrays (``convolve``, ``invert``, entrywise
linear structure and conjugation, the box part as a prefix slice) and the
file form of a jet."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreincalc import JetShape, NotInvertibleError, ShapeMismatchError
from kreincalc.calculus import _jet_entries
from kreincalc.jets import A_KIND, B_KIND, convolve, invert

A11 = JetShape(1, 1, A_KIND)
A21 = JetShape(2, 1, A_KIND)
A22 = JetShape(2, 2, A_KIND)
B21 = JetShape(2, 1, B_KIND)

SHAPES = [
    JetShape(0, 0, A_KIND),
    A11,
    A21,
    A22,
    JetShape(3, 2, A_KIND),
    B21,
    JetShape(2, 2, B_KIND),
    JetShape(3, 3, B_KIND),
]


def unit(shape):
    e = np.zeros(shape.size, dtype=complex)
    e[shape.position(0, 0)] = 1.0
    return e


def from_entries(shape, entries):
    """The coefficient array of a ``{(k, l): value}`` mapping; absent entries are zero."""
    c = np.zeros(shape.size, dtype=complex)
    for (k, l), v in entries.items():
        c[shape.position(k, l)] = v
    return c


def norm(a):
    return float(np.abs(a).max(initial=0.0))


def brute_product(shape, a, b):
    """Direct double-sum oracle, independent of the table-driven product."""
    idx = set(shape.indices)
    out = {}
    for k, l in idx:
        acc = 0j
        for c in range(k + 1):
            for d in range(l + 1):
                if (c, d) in idx and (k - c, l - d) in idx:
                    acc += a[shape.position(c, d)] * b[shape.position(k - c, l - d)]
        out[(k, l)] = acc
    return from_entries(shape, out)


def random_jet(rng, shape):
    return rng.standard_normal(shape.size) + 1j * rng.standard_normal(shape.size)


class TestShapes:
    def test_a_index_set(self):
        assert A11.indices == ((0, 0), (1, 0), (0, 1))
        assert A21.indices == ((0, 0), (1, 0), (2, 0), (0, 1))
        assert JetShape(0, 0, A_KIND).indices == ((0, 0),)

    def test_b_index_set(self):
        assert B21.indices == ((0, 0), (1, 0))
        assert JetShape(2, 2, B_KIND).indices == ((0, 0), (1, 0), (0, 1), (1, 1))

    def test_sizes(self):
        assert A22.size == 2 * 2 + 2
        assert JetShape(3, 3, B_KIND).size == 9

    def test_mixed_degenerate_rejected(self):
        with pytest.raises(ValueError):
            JetShape(2, 0, A_KIND)
        with pytest.raises(ValueError):
            JetShape(0, 3, B_KIND)

    def test_box_of_a_shape(self):
        assert A22.box() == JetShape(2, 2, B_KIND)
        assert B21.box() == B21


class TestLinear:
    def test_identity_combination(self):
        rng = np.random.default_rng(0)
        a, b, c = (random_jet(rng, A22) for _ in range(3))
        assert np.allclose(convolve(A22, 1.0 * a + 0.0 * b, c), convolve(A22, a, c))
        lhs = convolve(A22, 2.0 * a - 3j * b, c)
        assert np.allclose(lhs, 2.0 * convolve(A22, a, c) - 3j * convolve(A22, b, c))

    def test_cancellation(self):
        rng = np.random.default_rng(1)
        a, b = random_jet(rng, A21), random_jet(rng, A21)
        assert not (a - a).any()
        assert not convolve(A21, a - a, b).any()

    def test_componentwise_numbers(self):
        a = np.array([1, 2, 3], dtype=complex)
        b = np.array([4, 5, 6], dtype=complex)
        combo = 2.0 * a + 3.0 * b
        assert np.allclose(combo, [14, 19, 24])
        assert np.allclose(convolve(A11, unit(A11), combo), [14, 19, 24])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            A11.position(2, 0)


class TestProduct:
    def test_unit_law(self):
        rng = np.random.default_rng(2)
        for shape in SHAPES:
            a = random_jet(rng, shape)
            assert np.allclose(convolve(shape, unit(shape), a), a)

    def test_worked_example(self):
        a = np.array([1, 2, 3], dtype=complex)
        b = np.array([4, 5, 6], dtype=complex)
        assert np.allclose(convolve(A11, a, b), [4, 13, 18])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for shape in SHAPES:
            a, b = random_jet(rng, shape), random_jet(rng, shape)
            assert np.allclose(convolve(shape, a, b), brute_product(shape, a, b))

    def test_kernel_of_projection_is_nilpotent(self):
        # jets supported on the overflow slots multiply to zero
        rng = np.random.default_rng(4)
        for shape in (A11, A21, A22, JetShape(3, 2, A_KIND)):
            za = from_entries(shape, {(shape.m, 0): rng.standard_normal(), (0, shape.n): 1.3j})
            zb = from_entries(shape, {(shape.m, 0): -0.7, (0, shape.n): 2.1})
            assert not convolve(shape, za, zb).any()

    def test_integer_arithmetic_is_exact(self):
        rng = np.random.default_rng(5)
        for shape in (A22, JetShape(3, 3, B_KIND)):
            a, b, c = rng.integers(-9, 10, size=(3, shape.size)).astype(complex)
            ab = convolve(shape, a, b)
            assert np.array_equal(convolve(shape, ab, c), convolve(shape, a, convolve(shape, b, c)))
            assert np.array_equal(ab, convolve(shape, b, a))


class TestInverse:
    def test_unit_self_inverse(self):
        for shape in SHAPES:
            e = unit(shape)
            assert np.allclose(invert(shape, e), e)

    def test_worked_example(self):
        a = np.array([2, 1, 3], dtype=complex)
        inv = invert(A11, a)
        assert np.allclose(inv, [0.5, -0.25, -0.75])
        assert np.allclose(convolve(A11, a, inv), unit(A11))

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            invert(A11, np.array([0, 1, 2], dtype=complex))
        with pytest.raises(NotInvertibleError):
            invert(A11, np.array([1e-15, 1, 2], dtype=complex))

    def test_random_inverses(self):
        rng = np.random.default_rng(6)
        for shape in SHAPES:
            for _ in range(20):
                a = random_jet(rng, shape)
                if abs(a[shape.position(0, 0)]) < 1e-6:
                    continue
                inv = invert(shape, a)
                resid = convolve(shape, a, inv) - unit(shape)
                assert norm(resid) <= 1e-10 * (1.0 + norm(a) * norm(inv))


class TestConjugation:
    def test_real_fixed_point(self):
        a = np.array([1.5, -2, 7], dtype=complex)
        for out in (a, convolve(A11, a, a), invert(A11, a)):
            assert np.array_equal(out.conj(), out)

    def test_entrywise(self):
        a = np.array([1j, 1 + 1j, 2])
        assert np.allclose(a.conj(), [-1j, 1 - 1j, 2])
        assert np.allclose(invert(A11, a.conj()), invert(A11, a).conj())

    def test_involution_and_multiplicativity(self):
        rng = np.random.default_rng(7)
        for shape in SHAPES:
            a, b = random_jet(rng, shape), random_jet(rng, shape)
            assert np.array_equal(a.conj().conj(), a)
            assert np.allclose(convolve(shape, a, b).conj(), convolve(shape, a.conj(), b.conj()))


class TestProjection:
    """The box part of a kind-a jet is the prefix of its array that the
    box shape holds: the box entries come first in the same order."""

    def test_unit_to_unit(self):
        box = A22.box()
        assert np.array_equal(unit(A22)[: box.size], unit(box))
        assert A22.indices[: box.size] == box.indices

    def test_drops_overflow(self):
        a = from_entries(A21, {(0, 0): 1, (1, 0): 2, (2, 0): 3, (0, 1): 4})
        assert A21.box() == B21
        assert np.allclose(a[: B21.size], [1, 2])

    def test_homomorphism(self):
        rng = np.random.default_rng(8)
        for shape in (A11, A21, A22, JetShape(3, 2, A_KIND)):
            box = shape.box()
            k = box.size
            a, b = random_jet(rng, shape), random_jet(rng, shape)
            lhs = convolve(shape, a, b)[:k]
            rhs = convolve(box, a[:k], b[:k])
            assert np.allclose(lhs, rhs)
            assert np.allclose(a.conj()[:k], a[:k].conj())

    def test_identity_on_b_kind(self):
        a = np.array([1, 2], dtype=complex)
        assert B21.box() is B21
        assert np.array_equal(a[: B21.box().size], a)


coeff = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    data=st.data(),
)
def test_algebra_laws_hypothesis(shape, data):
    vec = st.lists(coeff, min_size=shape.size, max_size=shape.size)
    a, b, c = (np.array(data.draw(vec), dtype=complex) for _ in range(3))
    scale = 1.0 + norm(a) * norm(b) * max(norm(c), 1.0)
    ab = convolve(shape, a, b)
    assert norm(ab - convolve(shape, b, a)) <= 1e-12 * scale
    assert norm(convolve(shape, ab, c) - convolve(shape, a, convolve(shape, b, c))) <= 1e-12 * scale
    assert norm(convolve(shape, unit(shape), a) - a) == 0.0


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(SHAPES), data=st.data())
def test_invertible_iff_nonzero_value(shape, data):
    vec = st.lists(coeff, min_size=shape.size, max_size=shape.size)
    a = np.array(data.draw(vec), dtype=complex)
    if abs(a[shape.position(0, 0)]) <= 1e-12:
        with pytest.raises(NotInvertibleError):
            invert(shape, a)
    else:
        inv = invert(shape, a)
        resid = convolve(shape, a, inv) - unit(shape)
        assert norm(resid) <= 1e-10 * (1.0 + norm(a) * norm(inv))


def test_serialization_round_trip():
    # the file form of a jet, read back by the reader of the table and delta kinds
    rng = np.random.default_rng(9)
    for shape in SHAPES:
        a = random_jet(rng, shape)
        data = {
            "m": shape.m,
            "n": shape.n,
            "kind": shape.kind,
            "entries": [
                [k, l, float(c.real), float(c.imag)] for (k, l), c in zip(shape.indices, a)
            ],
        }
        back_shape, entries = _jet_entries(data)
        coeffs = np.zeros(back_shape.size, dtype=complex)
        coeffs[list(entries)] = list(entries.values())
        assert back_shape == shape
        assert np.array_equal(coeffs, a)

