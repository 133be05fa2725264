"""Deterministic symmetric eigensolver."""
import warnings

import numpy as np
import pytest

from vortexlab.jacobi import jacobi_eigh, min_eigenvalue


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def test_matches_lapack_on_random_matrices():
    for n in (2, 5, 20, 60):
        A = random_symmetric(n, n)
        vals, vecs = jacobi_eigh(A)
        ref = np.linalg.eigvalsh(A)
        assert np.max(np.abs(vals - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))
        # residual and orthogonality
        assert np.max(np.abs(A @ vecs - vecs * vals)) < 1e-12 * n
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) < 1e-13 * n


def test_ascending_order_and_known_spectrum():
    A = np.diag([3.0, -1.0, 2.0])
    vals, vecs = jacobi_eigh(A)
    assert np.array_equal(vals, np.array([-1.0, 2.0, 3.0]))
    assert min_eigenvalue(A) == -1.0
    B = np.array([[2.0, 1.0], [1.0, 2.0]])
    vals, _ = jacobi_eigh(B)
    assert np.allclose(vals, [1.0, 3.0], atol=1e-14)


def test_bit_reproducible():
    A = random_symmetric(30, 99)
    v1, e1 = jacobi_eigh(A)
    v2, e2 = jacobi_eigh(A.copy())
    assert np.array_equal(v1, v2)
    assert np.array_equal(e1, e2)


def test_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_handles_zero_and_scaled_matrices():
    vals, _ = jacobi_eigh(np.zeros((4, 4)))
    assert np.array_equal(vals, np.zeros(4))
    A = random_symmetric(10, 3)
    vals_small, _ = jacobi_eigh(1e-30 * A)
    ref = 1e-30 * np.linalg.eigvalsh(A)
    assert np.allclose(vals_small, ref, rtol=1e-10, atol=1e-44)


def test_traceless_matrix_converges_without_overflow():
    # trace 0 once made the stopping tolerance 1e-313: all 100 sweeps ran
    # and theta = (aqq - app) / apq overflowed on denormal pivots
    A = np.array([[1.0, 2.0, 3.0], [2.0, -2.0, 1.0], [3.0, 1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, _ = jacobi_eigh(A)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(A))) < 1e-13


def test_non_convergence_raises():
    with pytest.raises(np.linalg.LinAlgError):
        jacobi_eigh(random_symmetric(20, 20), max_sweeps=1)
