from dataclasses import fields

import numpy as np

from kreincalc.tol import DEFAULT_TOL, fro, fro_each


def test_fro_is_numpy_frobenius_norm_exactly():
    rng = np.random.default_rng(62)
    for k in range(400):
        shape = tuple(rng.integers(1, 14, size=2))
        M = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8)
        if k % 2:
            M = M + 1j * rng.standard_normal(shape)
        for X in (M, M.T, M[::2], M[:, ::-1], M.T[1:, ::2]):
            assert fro(X) == float(np.linalg.norm(X, "fro"))
    assert fro(np.zeros((0, 3))) == 0.0
    assert fro(np.eye(3, dtype=int)) == float(np.linalg.norm(np.eye(3), "fro"))


def test_fro_each_norms_every_matrix_of_a_stack():
    rng = np.random.default_rng(63)
    S = rng.standard_normal((2, 3, 4, 5)) + 1j * rng.standard_normal((2, 3, 4, 5))
    for X in (S, S.real, S[:, :, ::2], S.transpose(0, 1, 3, 2)):
        expected = [[fro(M) for M in row] for row in X]
        assert np.allclose(fro_each(X), expected, rtol=1e-15, atol=0)
    assert fro_each(np.zeros((0, 2, 2))).shape == (0,)
    assert np.array_equal(fro_each(np.zeros((3, 0, 0))), np.zeros(3))


def test_scaled_multiplies_every_field_but_cond_which_it_divides():
    for factor in (0.01, 0.5, 10.0):
        scaled = DEFAULT_TOL.scaled(factor)
        for f in fields(DEFAULT_TOL):
            base = getattr(DEFAULT_TOL, f.name)
            expected = base / factor if f.name == "cond" else base * factor
            assert getattr(scaled, f.name) == expected, f.name
    assert len(fields(DEFAULT_TOL)) == 6
