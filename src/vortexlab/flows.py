"""Linearized flows along a stored trajectory and the control probe.

The tangent flow propagates perturbations forward with the same
exponential-Euler stepping as the simulator; the adjoint flow integrates the
backward equation in reversed time (continuous-adjoint-then-discretize). A
discrete-transpose stepping mode is also provided: it is the exact transpose
of the forward one-step maps and is what the control-search gradient uses,
so that adjoint gradients match finite differences of the discrete objective
to roundoff rather than to O(dt). All three steps are written once, as the
methods of `Stepper`.

`tangent_sweep` (forward from s) and `adjoint_sweep` (backward from t) check
their window and return one node loop's generator; an endpoint is the last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import SimConfig, Trajectory, simulate
from .spectral import TWO_PI_SQ, SpectralField, build_interaction_table


def _one_path(traj: Trajectory, name: str):
    if traj.states.ndim != 2:
        raise ValueError(f"{name} takes one path, not a block")


def _window(traj: Trajectory, s: float, t: float):
    i0, i1 = traj.grid_index(s), traj.grid_index(t)
    if i0 > i1:
        raise ValueError("need s <= t")
    return i0, i1


class Stepper:
    """The one-step maps linearized along a stored trajectory.

    L_i = table.linearization(w_i) is step i's dense operator and D the
    run's viscous decay over one step; each method maps an (n, m) column
    block in place on its matmul's output. It reads what `simulate`
    recorded: L is linear in w and L(0) is all +0, so the leading +0 nodes
    share the table's zero matrix, with the same bits. If the columns
    `cols` it will step are +0 in every bit off the run's closure E and
    L(w) is split on (E, E'), L_i is only its E x E block, with the same
    bits: DU + dt (+-0) stays +0. Otherwise L_i is the whole table's.
    """

    def __init__(self, traj: Trajectory, cols: np.ndarray):
        self.states = traj.states
        self.table = build_interaction_table(traj.basis)
        self.dt = traj.config.dt
        self.decay = traj.decay[:, None]
        self.zeros, closure = traj.zero_nodes, traj.closure
        off = np.compress(~closure.mask, np.asarray(cols, float), 0)
        split = closure.split and not off.view(np.int64).any()
        self.closure = closure if split else self.table.whole
        self.zero_L = np.broadcast_to(self.table.zero_L,
                                      self.states.shape[1:] + traj.decay.shape)

    def _L(self, i: int) -> np.ndarray:
        return (self.zero_L if i < self.zeros
                else self.table.linearization(self.states[i], self.closure))

    def tangent(self, i: int, V: np.ndarray) -> np.ndarray:
        """D(V + dt L_i V): the exponential-Euler tangent step i -> i+1."""
        X = self._L(i) @ V
        X *= self.dt
        return np.multiply(np.add(X, V, out=X), self.decay, out=X)

    def transpose(self, i: int, U: np.ndarray) -> np.ndarray:
        """DU + dt L_i^T (DU): the exact transpose of `tangent(i, .)`."""
        DU = self.decay * U
        X = self._L(i).mT @ DU
        X *= self.dt
        return np.add(X, DU, out=X)

    def adjoint(self, i: int, U: np.ndarray) -> np.ndarray:
        """D(U + dt L_i^T U): the backward adjoint equation stepped i+1 -> i.

        L_i^T U = B(w_i, U) - C(U, w_i), since B(w, .) is skew; the drift is
        explicit and the viscous factor exact, as in the forward template.
        """
        X = self._L(i).mT @ U
        X *= self.dt
        return np.multiply(np.add(X, U, out=X), self.decay, out=X)


def tangent_flow(traj: Trajectory, s: float, phi: SpectralField,
                 t: float) -> SpectralField:
    """J_{s,t} phi: forward linearization along the stored states."""
    _one_path(traj, "tangent_flow")
    for V in tangent_sweep(traj, s, phi.coeffs[:, None], t):
        pass  # one node at a time: the sweep's last node is J_{s,t} phi
    return SpectralField(traj.basis, V[:, 0])


def tangent_sweep(traj: Trajectory, s: float, phi_cols: np.ndarray, t: float):
    """J_{s,r} phi_cols for r from s to t, a generator of the nodes: phi_cols
    first, then one `Stepper.tangent` per step. The window is checked here."""
    i0, i1 = _window(traj, s, t)
    return _sweep(traj, Stepper(traj, phi_cols).tangent, phi_cols,
                  range(i0, i1))


def _sweep(traj: Trajectory, step, phi_cols: np.ndarray, steps):
    """The node loop of both sweeps: the columns as (n, m), or (P, n, m) on
    block states (nodes, P, n) from node 0 on, then step(i, .) for each i."""
    U = np.column_stack([np.asarray(phi_cols, dtype=float)])
    U = np.broadcast_to(U, traj.states.shape[1:-1] + U.shape).copy()
    yield U
    for i in steps:
        U = step(i, U)
        yield U


def adjoint_flow(traj: Trajectory, t: float, phi: SpectralField,
                 s: float, discrete_transpose: bool = False) -> SpectralField:
    _one_path(traj, "adjoint_flow")
    for U in adjoint_sweep(traj, t, phi.coeffs[:, None], s,
                           discrete_transpose):
        pass  # one node at a time: the sweep's last node is U(s)
    return SpectralField(traj.basis, U[:, 0])


def adjoint_sweep(traj: Trajectory, t: float, phi_cols: np.ndarray,
                  s: float, discrete_transpose: bool = False):
    """Backward adjoint flow U^{t,phi} columnwise, a generator of the nodes
    from t back to s; the window is checked here. Default steps integrate the
    backward equation in reversed time (`Stepper.adjoint`);
    discrete_transpose=True steps the exact transpose (`Stepper.transpose`)."""
    i0, i1 = _window(traj, s, t)
    stepper = Stepper(traj, phi_cols)
    step = stepper.transpose if discrete_transpose else stepper.adjoint
    return _sweep(traj, step, phi_cols, range(i1 - 1, i0 - 1, -1))


def duality_drift(traj: Trajectory, k, s: float, t: float,
                  phi: SpectralField) -> float:
    """Max deviation from the mean of r -> <V_{k,s}(r), U^{t,phi}(r)>.

    The continuum pairing is exactly constant on [s, t]; the discrete drift
    decays at first order in dt.
    """
    _one_path(traj, "duality_drift")
    i0, i1 = _window(traj, s, t)
    if i0 >= i1:
        raise ValueError("need s < t")
    ek = SpectralField.single_mode(traj.basis, tuple(k)).coeffs[:, None]
    u_hist = reversed(list(adjoint_sweep(traj, t, phi.coeffs[:, None], s)))
    pairing = TWO_PI_SQ * np.array([np.einsum("nm,nm->", V, U) for V, U in
                                    zip(tangent_sweep(traj, s, ek, t), u_hist)])
    return float(np.max(np.abs(pairing - pairing.mean())))


def second_variation(traj: Trajectory, s1: float, phi1: SpectralField,
                     s2: float, phi2: SpectralField, t: float) -> SpectralField:
    """Mixed second derivative of the pathwise solution map.

    Solves the tangent-type equation forced by the symmetrized bilinear
    source of the two first-order flows, by variation of constants on the
    grid; zero up to max(s1, s2).
    """
    _one_path(traj, "second_variation")
    basis = traj.basis
    start = max(traj.grid_index(s1), traj.grid_index(s2))
    it = traj.grid_index(t)
    if it <= start:
        return SpectralField(basis)
    # bring both first variations up to the start of the second-order window
    for v1 in tangent_sweep(traj, s1, phi1.coeffs, traj.times[start]):
        pass
    for v2 in tangent_sweep(traj, s2, phi2.coeffs, traj.times[start]):
        pass
    # v1, v2 and psi share each step; psi's source may leave the closure
    stepper = Stepper(traj, np.ones((len(basis), 1)))
    X = np.hstack((v1, v2, np.zeros_like(v1)))
    for i in range(start, it):
        v1, v2 = X[:, 0], X[:, 1]
        source = -(stepper.table.apply(v1, v2) + stepper.table.apply(v2, v1))
        X = stepper.tangent(i, X)
        X[:, 2] += stepper.dt * stepper.decay[:, 0] * source
    return SpectralField(basis, X[:, 2])


@dataclass
class ControlResult:
    control: np.ndarray       # (n_steps, n_forced) piecewise-constant rates
    achieved: np.ndarray      # projected endpoint
    residual: float
    iterations: int
    converged: bool
    history: list


def control_gradient(traj: Trajectory, residual_proj: np.ndarray,
                     proj_idx: np.ndarray, s: float = 0.0) -> np.ndarray:
    """Exact gradient of 0.5*|P w(T) - x|^2 wrt the control rates.

    Backpropagates through the discrete forward steps (discrete transpose),
    so the gradient matches central finite differences to roundoff. The
    rates before s get exact zeros and cost no step.
    """
    _one_path(traj, "control_gradient")
    forced, dt = traj.forced_indices, traj.config.dt
    adj = np.zeros((len(traj.basis), 1))
    adj[proj_idx, 0] = residual_proj
    grad = np.zeros((len(traj.times) - 1, len(forced)))
    # row i reads node i + 1; zip stops before the sweep steps to node s
    for i, U in zip(range(len(grad) - 1, traj.grid_index(s) - 1, -1),
                    adjoint_sweep(traj, traj.config.t_final, adj, s, True)):
        grad[i] = U.take(forced, axis=-2)[:, 0]
    # h_i enters w_{i+1} = decay*(w_i + dt*(N(w_i) + Q h_i)) as dt*decay
    return dt * (traj.decay[forced] * grad)


def control_search(config: SimConfig, projection, target, s: float, t: float,
                   max_iters: int = 200, tol: float = 1e-8) -> ControlResult:
    """Gradient descent with backtracking on the endpoint-matching objective.

    projection: list of modes spanning the target subspace; target: the
    desired projected coefficient vector at time t, which must be
    config.t_final. Controls are piecewise-constant rates on the forced
    modes over [s, t], s a grid time before t; zero noise. No control moves
    a projection wholly off the closure of w_0 and every forced mode: no step.
    """
    if abs(t - config.t_final) > 1e-9 * config.t_final:
        raise ValueError("control matches the endpoint: need t == t_final")
    n_steps = config.n_steps()
    i0 = config.grid_index(s)
    if i0 >= n_steps:
        raise ValueError("need s < t")
    basis = config.basis()
    proj_idx = np.array([basis.index[tuple(k)] for k in projection], dtype=np.intp)
    target = np.asarray(target, dtype=float)
    if len(target) != len(proj_idx):
        raise ValueError("target length does not match projection")
    control = np.zeros((n_steps, len(config.forcing.z_star)))

    def objective(ctrl):
        traj = simulate(config, increments=np.zeros_like(ctrl), control=ctrl)
        end = traj.states[-1][proj_idx]
        r = end - target
        return 0.5 * float(np.dot(r, r)), traj, end, r

    J, traj, end, r = objective(control)
    history = [J]
    step, it = 1.0, 0
    converged = np.sqrt(2 * J) <= tol
    seed = traj.states[0] != 0
    seed[traj.forced_indices] = True
    reach = build_interaction_table(basis).closure(seed).mask[proj_idx].any()
    while reach and it < max_iters and not converged:
        grad = control_gradient(traj, r, proj_idx, s)  # zero before s
        gnorm2 = float(np.sum(grad ** 2))
        if gnorm2 == 0.0:
            # flat (typically a saddle at zero control when the targets sit
            # outside the forced set); kick the control deterministically and
            # let the nonlinearity open a descent direction
            if np.any(control[i0:]):
                break
            ramp = np.linspace(0.5, 1.0, n_steps - i0)
            control = control.copy()
            control[i0:] = 0.1 * ramp[:, None]
            J, traj, end, r = objective(control)
            history.append(J)
            it += 1
            continue
        while step > 1e-14:
            trial = control - step * grad
            Jt, traj_t, end_t, r_t = objective(trial)
            if Jt < J:
                control, J, traj, end, r = trial, Jt, traj_t, end_t, r_t
                step *= 1.5
                break
            step *= 0.5
        else:
            break
        history.append(J)
        it += 1
        converged = np.sqrt(2 * J) <= tol
    return ControlResult(control=control, achieved=end,
                         residual=float(np.sqrt(2 * J)), iterations=it,
                         converged=bool(converged), history=history)
