"""Noise-covariance (Malliavin-type) matrices along simulated paths.

Entries follow the unit-normalized convention: both the noise directions
and the test vectors are basis modes scaled to unit L2 norm, which makes
the matrix in plain coefficient space a Gram of propagated unnormalized
columns. On a frozen (zero) trajectory the diagonal reduces to the
heat-kernel integral (1 - exp(-2 nu |k|^2 t)) / (2 nu |k|^2) ~ t.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .flows import Stepper, _one_path, adjoint_sweep
from .lattice import reachable_modes
from .modes import canonical, is_plus, negate, norm2
from .quadvar import wilson_interval
from .simulate import SimConfig, Trajectory, simulate_blocks
from .spectral import (TWO_PI_SQ, SpectralField, build_interaction_table,
                       interaction_coeff)


GRAM_CHUNK = 64  # nodes of the sweep folded into a Gram's factor per QR


@dataclass
class MalliavinForm:
    subspace: tuple            # ordered modes spanning the projection
    factor: np.ndarray         # upper-triangular R; (P, m, m) for a block
    t: float
    trajectory: Trajectory = field(repr=False, default=None)

    @cached_property
    def matrix(self):          # unit-normalized, exactly symmetric and PSD
        return self.factor.mT @ self.factor

    def lambda_min(self, w=1.0):
        """Smallest eigenvalue of diag(w) M diag(w), one per form of a block:
        1 / sigma_max(inv(R diag w))^2, resolved to about 1e-12 relative
        (Householder QR keeps the columns' grading in R); exactly 0 where R
        has a zero on its diagonal, and 0 below the double range."""
        # inv(R diag w) = diag(1/w) inv(R): one inverse serves every w
        S, e, zero = self._inverse_gram
        top = np.linalg.eigvalsh(S / np.outer(w, w))[..., -1]
        return np.where(zero, 0.0, np.ldexp(1.0 / top, -2 * e))

    @cached_property
    def _inverse_gram(self):  # inv(R) inv(R)^T / 4^e, 1 for a 0 pivot
        R = self.factor
        zero = np.diagonal(R, axis1=-2, axis2=-1) == 0.0
        inv = np.linalg.inv(R + zero[..., None] * np.eye(zero.shape[-1]))
        # 2^-e takes the largest entry to [1/2, 1), so the product is finite
        e = np.frexp(np.max(np.abs(inv), axis=(-2, -1)))[1]
        inv = np.ldexp(inv, -e[..., None, None])
        return inv @ inv.mT, e, np.any(zero, axis=-1)

    def lambda_max(self):
        """Largest eigenvalue, one per form of a block; eigvalsh resolves it."""
        return np.linalg.eigvalsh(self.matrix)[..., -1]


def malliavin_forward(traj: Trajectory, t: float, subspace) -> MalliavinForm:
    """Projected noise covariance at time t, as the factor R of its Gram.

    The Gram assembles the propagated noise columns V_{k,s}(t) with
    trapezoid quadrature in s; the columns are obtained from the exact
    transposes of the one-step tangent maps, so the result is identical to
    propagating each column forward individually. R folds in the sweep
    chunk by chunk (sequential TSQR), stacked for a block.
    """
    try:
        idx = [traj.basis.index[tuple(k)] for k in subspace]
    except KeyError as bad:
        raise ValueError(f"subspace mode {bad.args[0]} outside basis") from None
    i_t = traj.grid_index(t)
    n, m = len(traj.basis), len(idx)
    R = np.zeros(traj.states.shape[1:-1] + (m, m))
    # each path's forced rows, taken from the (P n, m) view of a node
    at = (np.arange(0, traj.states[0].size, n)[:, None]
          + traj.forced_indices).ravel()
    rows = []
    for k, U in enumerate(adjoint_sweep(traj, t, np.eye(n)[:, idx], 0.0,
                                        discrete_transpose=True)):
        rows.append(U.reshape(-1, m).take(at, axis=0))
        if k in (0, i_t):  # trapezoid in s: half weights at both ends,
            rows[-1] *= math.sqrt(0.5) if i_t else 0.0  # 0 on one node
        if len(rows) == GRAM_CHUNK or k == i_t:
            X = np.stack(rows, axis=1).reshape(R.shape[:-2] + (-1, m))
            X = np.concatenate([R, math.sqrt(traj.config.dt) * X], axis=-2)
            R = np.linalg.qr(X, mode="r")
            rows = []
    return MalliavinForm(tuple(subspace), R, t, traj)


def lyapunov_covariance(traj: Trajectory, t: float) -> np.ndarray:
    """Plain covariance of every mode at time t, (n, n), or (P, n, n) on
    block states: the forward recursion M <- Phi M Phi^T + dt S through the
    one-step tangent maps, S the identity on the forced coordinates,
    weighted to match the Gram's trapezoid rule. It neither sweeps the
    transposes nor folds a factor, so it checks the Gram independently."""
    n, dt = len(traj.basis), traj.config.dt
    stepper = Stepper(traj)
    S = np.zeros((n, n))
    S[traj.forced_indices, traj.forced_indices] = 1.0
    M = np.broadcast_to(0.5 * dt * S, traj.states.shape[1:-1] + (n, n))
    eye = np.eye(n)
    for i in range(traj.grid_index(t)):
        Phi = stepper.tangent(i, eye)
        M = Phi @ M @ Phi.mT + dt * S
    return M - 0.5 * dt * S


def malliavin_backward_form(traj: Trajectory, t: float,
                            phi: SpectralField) -> float:
    """Quadratic form <M(t) phi, phi> of one path from one backward solve.

    Integrates the squared forced components of the backward flow as its
    sweep yields them, t back to 0; the backward stepping discretizes the
    adjoint equation directly, an independent realization of the forward Gram.
    """
    _one_path(traj, "malliavin_backward_form")
    sq = np.fromiter((np.sum(U[traj.forced_indices, 0] ** 2) for U in
                      adjoint_sweep(traj, t, phi.coeffs[:, None], 0.0)), float)
    return float(TWO_PI_SQ * np.trapezoid(sq[::-1], dx=traj.config.dt))


@dataclass
class TailTable:
    epsilons: np.ndarray
    frequencies: np.ndarray        # P(lambda_min < eps), L2-normalized ball
    intervals: np.ndarray          # Wilson 95% bounds, shape (n_eps, 2)
    lambda_min: np.ndarray         # per path, L2 ball
    lambda_min_h1: np.ndarray      # per path, H1-weighted ball
    lambda_max: np.ndarray
    trace: np.ndarray


DEFAULT_EPSILONS = tuple(10.0 ** -p for p in range(1, 9))


def min_eigenvalue_tail(config: SimConfig, t: float, subspace,
                        n_paths: int, epsilons=DEFAULT_EPSILONS) -> TailTable:
    """Empirical small-eigenvalue tail of the projected covariance.

    Simulates n_paths independent trajectories and records the smallest
    eigenvalue of the projected matrix on each; reports per-epsilon
    frequencies with Wilson intervals.
    """
    basis = config.basis()
    reach = reachable_modes(config.forcing, basis.radius)
    missing = [tuple(k) for k in subspace if tuple(k) not in reach.reached]
    if missing:
        warnings.warn(
            f"subspace modes {missing} are not reachable from the forcing; "
            "nondegeneracy is not expected to hold", stacklevel=2)
    epsilons = np.asarray(sorted(epsilons, reverse=True), dtype=float)
    lam_min, lam_min_h1, lam_max, trace = np.empty((4, n_paths))
    w = 1.0 / np.sqrt([float(norm2(k)) for k in subspace])  # unit H1 ball
    for block, traj in simulate_blocks(config, range(n_paths)):
        form = malliavin_forward(traj, t, subspace)
        lam_min[block], lam_max[block] = form.lambda_min(), form.lambda_max()
        lam_min_h1[block] = form.lambda_min(w)
        trace[block] = np.trace(form.matrix, axis1=-2, axis2=-1)
        del form, traj  # the block is freed before the next one is simulated
    freq = np.array([(lam_min < eps).mean() for eps in epsilons])
    ivals = np.array([wilson_interval(int(round(f * n_paths)), n_paths)
                      for f in freq])
    return TailTable(epsilons, freq, ivals, lam_min, lam_min_h1, lam_max,
                     trace)


@dataclass
class BracketDecomposition:
    times: np.ndarray              # grid on [t0, T]
    U: np.ndarray                  # adjoint flow, (n_nodes, n_modes)
    X: np.ndarray                  # drift part of dU/ds, same shape
    Y: np.ndarray                  # (n_forced, n_nodes, n_modes)
    R: np.ndarray                  # forced states minus W
    W: np.ndarray                  # Wiener components, (n_nodes, n_forced)
    forced_modes: tuple

    def reconstructed_derivative(self) -> np.ndarray:
        return self.X + np.einsum("jim,ij->im", self.Y, self.W)


def bracket_decomposition(traj: Trajectory, t0: float, T: float,
                          phi: SpectralField) -> BracketDecomposition:
    """Split dU/ds into a finite-variation part and Wiener-weighted parts.

    U is the backward adjoint flow of one path with terminal data phi at T.
    On the forced modes the state is R + W: W the raw Wiener components and
    R = w_forced - W, which varies only at O(dt) per step. Substituting that
    split into the backward equation isolates the rough part as
    sum_j Y_j W_j with Y_j = -B(e_j, U) + C(U, e_j); since L(w) is linear
    in w, X + sum_j Y_j W_j is nu |k|^2 U - L(w)^T U, the backward
    equation's right side, to rounding at every node.
    """
    _one_path(traj, "bracket_decomposition")
    basis = traj.basis
    table = build_interaction_table(basis)
    lam = basis.laplacian_symbol()
    i0, i1 = traj.grid_index(t0), traj.grid_index(T)
    if i0 >= i1:
        raise ValueError("need t0 < T")
    U = np.stack(list(adjoint_sweep(traj, T, phi.coeffs[:, None], t0))[::-1])
    U = U[:, :, 0]
    forced = traj.forced_indices
    wiener = traj.wiener_path()[i0:i1 + 1]
    R = traj.states[i0:i1 + 1, forced] - wiener
    # Y_j and X along the window; both are first-slot transposes of the
    # dense linearization: L(a)^T u = B(a, u) - C(u, a), one a at a time
    n = len(basis)
    Y = np.empty((len(forced),) + U.shape)
    for Y_j, e_j in zip(Y, np.eye(n)[forced]):
        np.matmul(-U, table.linearization(e_j), out=Y_j)
    X = np.empty_like(U)
    for i in range(len(U)):
        # the drift sees the forced modes through R only, not through W
        a = traj.states[i0 + i].copy()
        a[forced] = R[i]
        X[i] = traj.config.nu * lam * U[i] - table.linearization(a).T @ U[i]
    return BracketDecomposition(traj.times[i0:i1 + 1], U, X, Y, R, wiener,
                                traj.forced_modes)


# The bracket identities are stated for the half pairing
# (f, g) = (1/2) int f g = pi^2 * (coefficient dot product), under which
# the global prefactor is exactly pi^2. With the full integral pairing the
# same identities hold with prefactor 2 pi^2.
PAIRING_PREFACTOR = np.pi ** 2


def pairing_rhs(basis, u_coeffs: np.ndarray, j, l) -> np.ndarray:
    """Predicted half pairing (Y_j, e_l) for j, l in the positive class.

    PAIRING_PREFACTOR * c(j,l) * [U_{-(l-j)} + U_{-(l+j)}], coefficients
    read at the signed lattice labels (zero when the label leaves the
    truncated basis). u_coeffs has shape (..., n) and the result (...).
    """
    if not (is_plus(j) and is_plus(l)):
        raise ValueError("pairing formula stated for positive-class modes")
    u_coeffs = np.asarray(u_coeffs, dtype=float)

    def coeff_at(m):
        i = basis.index.get(m)     # None for (0, 0) too
        return np.zeros(u_coeffs.shape[:-1]) if i is None else u_coeffs[..., i]

    diff = (l[0] - j[0], l[1] - j[1])
    sums = (l[0] + j[0], l[1] + j[1])
    c = interaction_coeff(j, l)
    # the difference label is canonicalized before negation; the sum label
    # is negated verbatim
    d_label = negate(canonical(diff)) if diff != (0, 0) else (0, 0)
    return PAIRING_PREFACTOR * c * (coeff_at(d_label) + coeff_at(negate(sums)))
