"""Deterministic symmetric eigensolver by cyclic Jacobi rotations.

Dependency-free on purpose: identical rotations in identical order on every
platform, so spectra in tests and reports are bit-reproducible. Adequate for
matrices up to a few hundred rows.
"""

from __future__ import annotations

import numpy as np


def jacobi_eigh(A: np.ndarray, max_sweeps: int = 100):
    """Eigenvalues and orthonormal eigenvectors of a symmetric matrix.

    Cyclic sweeps over the upper triangle, zeroing each off-diagonal entry
    with a Givens rotation; stops when the off-diagonal Frobenius mass falls
    below 1e-13 times the larger of the trace magnitude and the Frobenius
    norm, and raises np.linalg.LinAlgError if it is still above after
    max_sweeps sweeps. Returns (values, vectors) sorted ascending, with
    vectors in columns.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(A)))):
        raise ValueError("matrix must be symmetric")
    A = 0.5 * (A + A.T)
    V = np.eye(n)
    if n == 1:
        return A.diagonal().copy(), V
    # the Frobenius norm keeps the tolerance scaled when the trace cancels;
    # for a PSD matrix it never exceeds the trace
    tol = 1e-13 * max(abs(np.trace(A)), np.linalg.norm(A), 1e-300)
    for sweep in range(max_sweeps + 1):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off <= tol:
            break
        if sweep == max_sweeps:
            raise np.linalg.LinAlgError(
                f"Jacobi did not converge in {max_sweeps} sweeps: "
                f"off-diagonal norm {off:.3e} > {tol:.3e}")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= tol / (n * n):
                    continue
                theta = 0.5 * (A[q, q] - A[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    vals = A.diagonal().copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], V[:, order]


def min_eigenvalue(A: np.ndarray) -> float:
    vals, _ = jacobi_eigh(A)
    return float(vals[0])
