import numpy as np
import pytest
import scipy.linalg

from kreincalc import (
    DefinitizablePair,
    KreinSpace,
    NotNormalError,
    NotPsdError,
    RealPoly,
    SearchFailedError,
    ValidationError,
    build_bundle,
    generate,
    parse_instance,
    run_suite,
    search_definitizing,
    split_normal,
    verify_definitizing,
)
from kreincalc.instances import matrix_to_json
from kreincalc.krein import poly_eval_scale, split_noise
from kreincalc.tol import fro

J2 = np.diag([1.0, -1.0]).astype(complex)
FLIP = np.array([[0, 1], [1, 0]], dtype=complex)


def random_operator(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestKreinSpace:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            KreinSpace(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_rejects_singular(self):
        with pytest.raises(ValidationError):
            KreinSpace(np.diag([1.0, 0.0]))

    def test_inner_product(self):
        space = KreinSpace(J2)
        x, y = np.array([1.0, 2.0]), np.array([3.0, 1j])
        assert space.inner(x, y) == pytest.approx(np.conj(3.0) * 1 - np.conj(1j) * 2)

    def test_signature(self):
        assert KreinSpace(J2).signature() == (1, 1)
        assert KreinSpace(FLIP).signature() == (1, 1)
        assert KreinSpace(np.eye(3)).signature() == (3, 0)


class TestAdjoint:
    def test_hilbert_case(self):
        space = KreinSpace(np.eye(2))
        C = np.array([[1, 2j], [0, 3]], dtype=complex)
        assert np.allclose(space.adjoint(C), C.conj().T)

    def test_worked_example(self):
        space = KreinSpace(J2)
        C = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(space.adjoint(C), [[0, 0], [-1, 0]])

    def test_non_diagonal_gram_matches_solve(self):
        # a random congruence S^H J S of a generated instance: the adjoint by
        # the kept inverse agrees with solve(J, .), and the pair still builds
        for seed in range(12):
            inst = generate(seed, 3 + seed % 6, ("diagonal", "jordan", "pontryagin")[seed % 3])
            n = inst.pair.space.n
            rng = np.random.default_rng(seed)
            S = np.eye(n) + 0.5 * random_operator(rng, n) / np.sqrt(n)
            space = KreinSpace(S.conj().T @ inst.pair.space.J @ S)
            N = np.linalg.solve(S, inst.pair.N @ S)
            for C in (N, random_operator(rng, n)):
                exact = np.linalg.solve(space.J, C.conj().T @ space.J)
                assert fro(space.adjoint(C) - exact) <= space.tol.rel * fro(C)
            pair = DefinitizablePair.from_normal(space, N, inst.pair.p, inst.pair.q)
            assert all(r <= t for _, r, t in build_bundle(pair).report)

    def test_defining_identity_on_basis(self):
        rng = np.random.default_rng(20)
        space = KreinSpace(J2)
        C = random_operator(rng, 2)
        Cs = space.adjoint(C)
        for i in range(2):
            for j in range(2):
                x, y = np.eye(2)[i], np.eye(2)[j]
                assert space.inner(C @ x, y) == pytest.approx(space.inner(x, Cs @ y))

    def test_involution_and_antihomomorphism(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = rng.integers(2, 6)
            M = random_operator(rng, n)
            J = M @ M.conj().T + 0.3 * np.eye(n)
            J[0, 0] *= -1.0 if rng.integers(0, 2) else 1.0
            J = (J + J.conj().T) / 2
            if np.min(np.abs(np.linalg.eigvalsh(J))) < 1e-3:
                continue
            space = KreinSpace(J)
            C, D = random_operator(rng, n), random_operator(rng, n)
            scale = np.linalg.norm(C) * np.linalg.norm(D) + 1.0
            assert np.allclose(space.adjoint(space.adjoint(C)), C, atol=1e-10 * scale)
            assert np.allclose(
                space.adjoint(C @ D),
                space.adjoint(D) @ space.adjoint(C),
                atol=1e-10 * scale * np.linalg.cond(J),
            )


class TestSplitNormal:
    def test_selfadjoint_has_no_imaginary_part(self):
        space = KreinSpace(FLIP)
        N = np.array([[0, 1], [0, 0]], dtype=complex)
        A, B = split_normal(space, N)
        assert np.allclose(A, N) and np.allclose(B, 0)

    def test_diagonal_case(self):
        space = KreinSpace(J2)
        N = np.diag([1 + 2j, -1 + 3j])
        A, B = split_normal(space, N)
        assert np.allclose(A, np.diag([1, -1]))
        assert np.allclose(B, np.diag([2, 3]))

    def test_skew_case(self):
        space = KreinSpace(J2)
        B0 = np.diag([2.0, 5.0]).astype(complex)
        A, B = split_normal(space, 1j * B0)
        assert np.allclose(A, 0) and np.allclose(B, B0)

    def test_not_normal(self):
        space = KreinSpace(np.eye(2))
        with pytest.raises(NotNormalError):
            split_normal(space, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_parts_commute_and_are_selfadjoint(self):
        rng = np.random.default_rng(22)
        space = KreinSpace(J2)
        for _ in range(50):
            d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            N = np.diag(d)
            A, B = split_normal(space, N)
            assert space.is_selfadjoint(A) and space.is_selfadjoint(B)
            assert np.allclose(A @ B, B @ A, atol=1e-10)
            assert np.allclose(A + 1j * B, N)


class TestVerifyDefinitizing:
    def test_zero_operator_accepted(self):
        space = KreinSpace(FLIP)
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        rep = verify_definitizing(space, A, RealPoly([0, 0, 1]))  # p(A) = A^2 = 0
        assert rep.accepted and rep.min_eigenvalue == pytest.approx(0.0, abs=1e-14)

    def test_identity_accepted(self):
        space = KreinSpace(J2)
        rep = verify_definitizing(space, J2, RealPoly([0, 1]))
        assert rep.accepted and rep.min_eigenvalue == pytest.approx(1.0)

    def test_sign_flip_rejected(self):
        space = KreinSpace(J2)
        rep = verify_definitizing(space, J2, RealPoly([0, -1.0]))
        assert not rep.accepted and rep.min_eigenvalue == pytest.approx(-1.0)


class TestSearch:
    def test_positive_case(self):
        space = KreinSpace(J2)
        p = search_definitizing(space, J2)
        assert verify_definitizing(space, J2, p).accepted
        assert p.degree == 1 and p(0.0) == pytest.approx(0.0)  # p = z

    def test_nilpotent_cell(self):
        space = KreinSpace(FLIP)
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        p = search_definitizing(space, A)
        assert verify_definitizing(space, A, p).accepted
        assert p.degree <= 2

    def test_hilbert_case_is_constant(self):
        space = KreinSpace(np.eye(3))
        A = np.diag([1.0, 2.0, -4.0]).astype(complex)
        p = search_definitizing(space, A)
        assert p.degree == 0

    def test_exhaustion(self):
        # the rotation operator needs p = z^2 + 1, outside the real-center family
        space = KreinSpace(FLIP)
        A = np.array([[0, -1], [1, 0]], dtype=complex)
        with pytest.raises(SearchFailedError):
            search_definitizing(space, A, max_degree=5)


class TestDefinitizablePair:
    def test_from_normal_with_supplied_polys(self, w1):
        assert w1.pair.p.to_list() == [0.0, 1.0]
        assert np.allclose(w1.pair.N, np.diag([1 + 2j, -1 + 3j]))

    def test_rejects_non_definitizing(self):
        space = KreinSpace(J2)
        N = np.diag([1 + 2j, -1 + 3j])
        with pytest.raises(NotPsdError):
            DefinitizablePair.from_normal(
                space, N, p=RealPoly([0, 1]), q=RealPoly([-3, 1])
            )

    def test_accepts_a_part_that_is_zero_in_exact_arithmetic(self):
        # N = A is J-selfadjoint, so B = 0 and q = z is definitizing; the
        # split leaves rounding noise in B far above the evaluation scale
        # ||J|| ||B|| of q, and the split-noise floor absorbs it
        for seed in range(10):
            space, N = conjugated_diagonal(seed, [1.0, 2.0, 3.0, -1.0])
            pair = DefinitizablePair.from_normal(
                space, N, p=RealPoly([4, -4, 1]), q=RealPoly([0, 1])
            )
            rep = verify_definitizing(space, pair.B, pair.q)
            floor = split_noise(space, fro(pair.N), fro(pair.B), pair.q)
            assert -rep.min_eigenvalue <= 0.1 * floor, seed
            if seed == 0:
                assert not rep.accepted and rep.min_eigenvalue < 0.0

    def test_split_noise_floor_rejects_what_is_not_noise(self):
        space, N = conjugated_diagonal(0, [1.0, 2.0, 3.0, -1.0])
        with pytest.raises(NotPsdError, match="-1.00e"):
            DefinitizablePair.from_normal(space, N, p=RealPoly([4, -4, 1]), q=RealPoly([1]))
        # B has the eigenvalue -1e-3 on a J-positive slot: q = z is not definitizing
        space, N = conjugated_diagonal(0, [1.0, 2.0, 3.0 - 1e-3j, -1.0])
        with pytest.raises(NotPsdError):
            DefinitizablePair.from_normal(space, N, p=RealPoly([4, -4, 1]), q=RealPoly([0, 1]))

    def test_search_takes_the_split_noise_floor(self):
        # with q omitted the search tests its candidates as validate does,
        # so on B = 0 it finds q = z - c, c rounding noise, not (z - c)^2
        for seed in range(10):
            space, N = conjugated_diagonal(seed, [1.0, 2.0, 3.0, -1.0])
            pair = DefinitizablePair.from_normal(space, N, p=RealPoly([4, -4, 1]))
            assert pair.q.degree == 1 and abs(pair.q.coeffs[0]) <= 1e-15, seed
            inst = parse_instance(
                {"J": matrix_to_json(space.J), "N": matrix_to_json(N), "p": [4, -4, 1]}
            )
            assert inst.searched == ("q",) and inst.pair.q.degree == 1, seed
            assert run_suite(inst).passed, seed

    def test_gram_parts_are_hermitian_psd(self, w1):
        (Gp, *_), (Gq, *_) = w1.pair.definitizing_grams
        for M in (Gp, Gq, Gp + Gq):
            assert np.allclose(M, M.conj().T)
            assert np.min(np.linalg.eigvalsh(M)) >= -1e-12


def conjugated_diagonal(seed, values, strength=0.4):
    """(space, N): J = diag(1, -1, 1, ...) and diag(values) conjugated by
    the J-unitary exp(J^{-1} K) for a random skew-Hermitian K."""
    n = len(values)
    J = np.diag([1.0, -1.0] + [1.0] * (n - 2)).astype(complex)
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = (M - M.conj().T) / 2.0
    U = scipy.linalg.expm(np.linalg.solve(J, skew) * (strength / max(1.0, np.linalg.norm(skew, 2))))
    return KreinSpace(J), U @ np.diag(values) @ np.linalg.inv(U)


def test_eval_scale_bounds_the_definitizer_norm(instances100, w1, w2):
    # verify_definitizing scales its threshold by poly_eval_scale and takes
    # no norm of sym(J p(A)); the triangle inequality makes the scale larger
    for inst in instances100 + [w1, w2]:
        pair = inst.pair
        for M, poly in ((pair.A, pair.p), (pair.B, pair.q)):
            H = pair.space.J @ poly.of_matrix(M)
            H = (H + H.conj().T) / 2.0
            scale = poly_eval_scale(pair.space, np.linalg.norm(M, 2), poly)
            assert scale >= (1 - 1e-14) * np.linalg.norm(H, 2), inst.label
