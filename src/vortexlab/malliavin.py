"""Noise-covariance (Malliavin-type) matrices along simulated paths.

Entries follow the unit-normalized convention: both the noise directions
and the test vectors are basis modes scaled to unit L2 norm, which makes
the matrix in plain coefficient space a Gram of propagated unnormalized
columns. On a frozen (zero) trajectory the diagonal reduces to the
heat-kernel integral (1 - exp(-2 nu |k|^2 t)) / (2 nu |k|^2) ~ t.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .flows import Stepper, adjoint_flow_columns
from .lattice import reachable_modes
from .modes import canonical, is_plus, negate, norm2
from .quadvar import wilson_interval
from .simulate import SimConfig, Trajectory, block_size, simulate_paths
from .spectral import (TWO_PI_SQ, SpectralField, build_interaction_table,
                       interaction_coeff)


@dataclass
class MalliavinForm:
    subspace: tuple            # ordered modes spanning the projection
    matrix: np.ndarray         # symmetric, unit-normalized convention
    t: float
    trajectory: Trajectory = field(repr=False, default=None)
    factor: np.ndarray = field(repr=False, default=None)  # matrix = X.T @ X

    def __post_init__(self):
        M = self.matrix
        scale = np.max(np.abs(M), initial=0.0)
        if not np.allclose(M, M.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("covariance matrix must be symmetric")
        vals = self._spectrum(1.0)
        if vals[0] < -1e-10 * max(np.trace(M), 1.0):
            raise ValueError("covariance matrix must be positive semidefinite")
        self._eigenvalues = vals

    def _spectrum(self, w) -> np.ndarray:
        """Ascending eigenvalues of diag(w) M diag(w)."""
        if self.factor is None:
            return np.linalg.eigvalsh(self.matrix * np.outer(w, w))
        s = np.linalg.svd(self.factor * w, compute_uv=False)
        pad = np.zeros(len(self.matrix) - len(s))
        return np.concatenate([pad, s[::-1] ** 2])

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, kept from the solve of the PSD check.

        With a factor X, the squared singular values of X: nonnegative,
        and values below about (n eps)^2 lambda_max are unresolved. Else
        eigvalsh of the matrix, resolved only to about eps lambda_max.
        """
        return self._eigenvalues.copy()

    def h1_eigenvalues(self) -> np.ndarray:
        """Ascending spectrum for test vectors from the unit H1 ball, not L2."""
        w = 1.0 / np.sqrt([float(norm2(k)) for k in self.subspace])
        return self._spectrum(w)


def _subspace_indices(traj: Trajectory, subspace):
    try:
        return np.array([traj.basis.index[tuple(k)] for k in subspace],
                        dtype=np.intp)
    except KeyError as bad:
        raise ValueError(f"subspace mode {bad.args[0]} outside basis") from None


def _gram_history(traj: Trajectory, t: float, idx: np.ndarray) -> np.ndarray:
    """The discrete transpose sweep of the subspace's unit columns, t -> 0."""
    cols = np.zeros((len(traj.basis), len(idx)))
    cols[idx, np.arange(len(idx))] = 1.0
    return adjoint_flow_columns(traj, t, cols, 0.0, discrete_transpose=True)


def malliavin_forward(traj: Trajectory, t: float, subspace,
                      method: str = "gram", hist=None) -> MalliavinForm:
    """Projected noise covariance at time t by a forward representation.

    method="gram": Gram assembly of the propagated noise columns
    V_{k,s}(t) with trapezoid quadrature in s; the columns are obtained
    from the exact transposes of the one-step tangent maps, so the result
    is identical to propagating each column forward individually; hist is
    this path's (nodes, n, m) slice of a block's sweep, if one was made.

    method="lyapunov": forward recursion of the covariance through the
    one-step tangent maps, M <- Phi M Phi^T + dt*S with S the identity on
    the forced coordinates, weighted to match the trapezoid rule.
    """
    idx = _subspace_indices(traj, subspace)
    forced = traj.forced_indices
    i_t = traj.grid_index(t)
    dt = traj.config.dt
    n = len(traj.basis)
    if method == "gram":
        if hist is None:
            hist = _gram_history(traj, t, idx)
        # hist[i, k, a] = V_{k, s_i}(t)[subspace a]; trapezoid in s, with
        # the square roots of the weights in the factor X, M = X^T X
        weights = np.full(i_t + 1, dt)
        # a one-node grid spans no time, so its single weight is 0
        weights[0] = weights[-1] = 0.5 * dt if i_t else 0.0
        X = np.sqrt(weights)[:, None, None] * hist[:, forced, :]
        X = X.reshape(-1, len(idx))
        return MalliavinForm(tuple(subspace), X.T @ X, t, traj, X)
    if method == "lyapunov":
        stepper = Stepper(traj)
        S = np.zeros((n, n))
        S[forced, forced] = 1.0
        M = 0.5 * dt * S
        eye = np.eye(n)
        for i in range(i_t):
            Phi = stepper.tangent(i, eye)
            M = Phi @ M @ Phi.T + dt * S
        M = M - 0.5 * dt * S
        M = 0.5 * (M[np.ix_(idx, idx)] + M[np.ix_(idx, idx)].T)
        return MalliavinForm(tuple(subspace), M, t, traj)
    raise ValueError(f"unknown method {method!r}")


def malliavin_backward_form(traj: Trajectory, t: float,
                            phi: SpectralField) -> float:
    """Quadratic form <M(t) phi, phi> from a single backward adjoint solve.

    Integrates the squared forced components of the backward flow; the
    backward stepping discretizes the adjoint equation directly, so this is
    an independent realization of the forward Gram value.
    """
    hist = adjoint_flow_columns(traj, t, phi.coeffs[:, None], 0.0)
    sq = np.sum(hist[:, traj.forced_indices, 0] ** 2, axis=1)
    return float(TWO_PI_SQ * np.trapezoid(sq, dx=traj.config.dt))


@dataclass
class TailTable:
    epsilons: np.ndarray
    frequencies: np.ndarray        # P(lambda_min < eps), L2-normalized ball
    intervals: np.ndarray          # Wilson 95% bounds, shape (n_eps, 2)
    slope: float                   # log-log slope over the resolved range
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
    frequencies with Wilson intervals and the log-log slope across the
    epsilons where the frequency is strictly between 0 and 1.
    """
    basis = config.basis()
    reach = reachable_modes(config.forcing, basis.radius)
    missing = [tuple(k) for k in subspace if tuple(k) not in reach.reached]
    if missing:
        warnings.warn(
            f"subspace modes {missing} are not reachable from the forcing; "
            "nondegeneracy is not expected to hold", stacklevel=2)
    epsilons = np.asarray(sorted(epsilons, reverse=True), dtype=float)
    lam_min = np.empty(n_paths)
    lam_min_h1 = np.empty(n_paths)
    lam_max = np.empty(n_paths)
    trace = np.empty(n_paths)
    paths = simulate_paths(config, range(n_paths))
    nodes = config.grid_index(t) + 1
    size = block_size(basis, nodes * len(basis) * len(subspace), n_paths)
    for start in range(0, n_paths, size):
        group = [next(paths) for _ in range(min(size, n_paths - start))]
        # the sweep reads only the states, stacked (nodes, P, n) for P > 1
        block = group[0] if len(group) == 1 else replace(
            group[0], states=np.stack([tr.states for tr in group], axis=1))
        hist = _gram_history(block, t, _subspace_indices(block, subspace))
        hist = hist.reshape((nodes, len(group)) + hist.shape[-2:])
        for p, traj in enumerate(group, start):
            form = malliavin_forward(traj, t, subspace, hist=hist[:, p - start])
            vals = form.eigenvalues()
            lam_min[p], lam_max[p] = vals[0], vals[-1]
            trace[p] = float(np.trace(form.matrix))
            lam_min_h1[p] = form.h1_eigenvalues()[0]
        del group, block, hist  # freed before the next block is simulated
    freq = np.array([(lam_min < eps).mean() for eps in epsilons])
    ivals = np.array([wilson_interval(int(round(f * n_paths)), n_paths)
                      for f in freq])
    inside = (freq > 0.0) & (freq < 1.0)
    if inside.sum() >= 2:
        slope = float(np.polyfit(np.log(epsilons[inside]),
                                 np.log(freq[inside]), 1)[0])
    else:
        slope = float("nan")
    return TailTable(epsilons, freq, ivals, slope, lam_min, lam_min_h1,
                     lam_max, trace)


@dataclass
class BracketDecomposition:
    times: np.ndarray              # grid on [t0, T]
    U: np.ndarray                  # adjoint flow, (n_nodes, n_modes)
    X: np.ndarray                  # drift part of dU/ds, same shape
    Y: np.ndarray                  # (n_forced, n_nodes, n_modes)
    R: np.ndarray                  # integrated forced-mode drift
    W: np.ndarray                  # Wiener components, (n_nodes, n_forced)
    forced_modes: tuple

    def reconstructed_derivative(self) -> np.ndarray:
        return self.X + np.einsum("jim,ij->im", self.Y, self.W)


def bracket_decomposition(traj: Trajectory, t0: float, T: float,
                          phi: SpectralField) -> BracketDecomposition:
    """Split dU/ds into a finite-variation part and Wiener-weighted parts.

    U is the backward adjoint flow with terminal data phi at T. On the
    forced modes the state is the sum of an absolutely continuous piece R
    and the raw Wiener components; substituting that split into the
    backward equation isolates the rough part as sum_j Y_j W_j with
    Y_j = -B(e_j, U) + C(U, e_j).
    """
    basis = traj.basis
    table = build_interaction_table(basis)
    lam = basis.laplacian_symbol()
    nu = traj.config.nu
    dt = traj.config.dt
    i0, i1 = traj.grid_index(t0), traj.grid_index(T)
    if i0 >= i1:
        raise ValueError("need t0 < T")
    hist = adjoint_flow_columns(traj, T, phi.coeffs[:, None], t0)
    U = hist[:, :, 0]
    n_nodes = i1 - i0 + 1
    forced = traj.forced_indices
    wiener = traj.wiener_path()[i0:i1 + 1]
    # R: forced components minus the Wiener input, built by trapezoid over
    # the drift -nu*|k|^2 w_k - B(w,w)_k from time 0
    drift = np.empty((i1 + 1, len(forced)))
    for i in range(i1 + 1):
        w = traj.states[i]
        drift[i] = (-nu * lam[forced] * w[forced]
                    - table.apply(w, w)[forced])
    cum = np.concatenate([np.zeros((1, len(forced))),
                          np.cumsum(0.5 * dt * (drift[1:] + drift[:-1]),
                                    axis=0)])
    R = traj.states[0][forced] + cum[i0:i1 + 1]
    # Y_j and X along the window; both are first-slot transposes of the
    # dense linearization: L(a)^T u = B(a, u) - C(u, a)
    n = len(basis)
    Y = np.empty((len(forced), n_nodes, n))
    for a, f in enumerate(forced):
        Y[a] = -U @ table.linearization(np.eye(n)[f])
    X = np.empty((n_nodes, n))
    for i in range(n_nodes):
        # the drift sees the forced modes through R only, not through W
        a = traj.states[i0 + i].copy()
        a[forced] = R[i]
        X[i] = nu * lam * U[i] - table.linearization(a).T @ U[i]
    return BracketDecomposition(traj.times[i0:i1 + 1], U, X, Y, R, wiener,
                                traj.forced_modes)


# The bracket identities are stated for the half pairing
# (f, g) = (1/2) int f g = pi^2 * (coefficient dot product), under which
# the global prefactor is exactly pi^2. With the full integral pairing the
# same identities hold with prefactor 2 pi^2.
PAIRING_PREFACTOR = np.pi ** 2


def bracket_pairing(f_coeffs: np.ndarray, g_coeffs: np.ndarray) -> float:
    """The half pairing used by the bracket identities."""
    return float(np.pi ** 2 * np.dot(f_coeffs, g_coeffs))


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
