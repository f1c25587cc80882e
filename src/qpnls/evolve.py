"""Time-domain verification of constructed states.

A solution's Fourier table is resummed into a lattice field at any time,
and the lattice equation is integrated directly from the t = 0 field.
Agreement of the two over a time window is the independent check that the
constructed series actually solves the equation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import Region, box_sup_norms, recenter
from .linop import _SPARSETOOLS, _scipy_extension, box_operator
from .potential import ModelParams
from .solver import Solution


@dataclass(frozen=True)
class LatticeBox:
    """Cubic index box [-R, R]^d with row-major flattening."""

    d: int
    R: int

    @property
    def shape(self) -> tuple[int, ...]:
        return (2 * self.R + 1,) * self.d


def reconstruct(solution: Solution, t: float,
                box: Optional[LatticeBox] = None) -> tuple[LatticeBox, np.ndarray]:
    """Field u(t, n) = sum_k u_hat(k, n) exp(i k . omega t) on a box."""
    state = solution.state
    if box is None:
        box = LatticeBox(state.d, max(state.support_radius(), 1))
    Rk, Rn = state.radii
    k = np.indices((2 * Rk + 1,) * state.b).reshape(state.b, -1).T - Rk
    phase = np.exp(1j * (k @ np.asarray(solution.omega, dtype=float)) * t)
    field = phase @ state.amp.reshape(phase.size, -1)
    return box, recenter(field.reshape((2 * Rn + 1,) * state.d),
                         (box.R,) * box.d)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times),) + box.shape
    norm_drift: float


class BlowUpError(RuntimeError):
    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


def integrate(u0: np.ndarray, params: ModelParams, box: LatticeBox,
              T: float, dt: float, store_every: int = 1) -> Trajectory:
    """Fixed-step classical RK4 integration of du/dt = i ((eps hopping + V)
    u + delta |u|^2p u) on the box, zero outside it.  Blow-up (norm above
    ten times the initial norm) aborts with the time of failure.

    The right-hand side runs the box operator's CSR kernel on preallocated
    buffers and raises |v| to 2p with ndarray's own in-place ``**``; delta
    and the stage factors i dt / 2, i dt and i dt / 6 are held as arrays of
    the box's size, so every multiply is array by array.  The trajectory is
    bitwise the one ``L @ u`` and ``np.abs(u) ** (2 * p)`` give.  ``u0``
    must have the box's shape, ``store_every`` be at least 1, and T / dt
    round to at least one step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError(f"T / dt = {T / dt:g} rounds to no RK4 step")
    if np.shape(u0) != box.shape:
        raise ValueError(f"u0 has shape {np.shape(u0)}, the box {box.shape}")
    if store_every < 1:
        raise ValueError("store_every must be at least 1")
    L = box_operator(params, (), (box.R,) * box.d)
    # complex data, or csr_matvec would upcast it on every call
    m, indptr, indices, data = L.m, L.indptr, L.indices, L.data.astype(complex)
    csr_matvec = _scipy_extension(_SPARSETOOLS).csr_matvec
    nonlinear, power = params.delta != 0.0, 2 * params.p
    u = np.array(u0, dtype=complex)
    norm0 = np.linalg.norm(u)
    limit = 10.0 * max(norm0, 1e-300)
    flat = u.reshape(-1)
    ur, ui = flat.real, flat.imag
    acc, lin, y, c = (np.empty(m, dtype=complex) for _ in range(4))
    a = np.empty(m)
    # an array operand costs numpy less per call than a scalar, same bits
    delta = np.full(m, params.delta)
    h2, h, h6 = (np.full(m, s * 1j) for s in (0.5 * dt, dt, dt / 6.0))
    add, mul, absolute, ipow = np.add, np.multiply, np.absolute, operator.ipow
    fill, ur_dot, ui_dot = np.ndarray.fill, ur.dot, ui.dot

    def rhs(v: np.ndarray, out: np.ndarray) -> None:
        # out = L v + delta |v|^2p v, in the order L @ v would sum it
        fill(out, 0)
        csr_matvec(m, m, indptr, indices, data, v, out)
        if nonlinear:
            ipow(absolute(v, a), power)
            add(out, mul(mul(a, delta, a), v, c), out)

    times, states = [0.0], [u.copy()]
    for step in range(1, n_steps + 1):
        rhs(flat, acc)
        add(flat, mul(acc, h2, y), y)
        rhs(y, lin)
        add(flat, mul(lin, h2, y), y)
        add(acc, add(lin, lin, lin), acc)  # stages 2 and 3 weigh 2
        rhs(y, lin)
        add(flat, mul(lin, h, y), y)
        add(acc, add(lin, lin, lin), acc)
        rhs(y, lin)
        add(flat, mul(add(acc, lin, acc), h6, acc), flat)
        t = step * dt
        if math.sqrt(ur_dot(ur) + ui_dot(ui)) > limit:
            raise BlowUpError(f"norm blew up at t={t:.6g}", t)
        if step % store_every == 0 or step == n_steps:
            times.append(t)
            states.append(u.copy())
    drift = abs(np.linalg.norm(u) - norm0)
    return Trajectory(np.asarray(times), np.asarray(states), float(drift))


def closed_form_decoupled(u0: np.ndarray, params: ModelParams,
                          box: LatticeBox, t: float) -> np.ndarray:
    """Exact flow for eps = delta = 0: per-site phase rotation."""
    mu_grid = params.mu_values(Region.cube(box.d, box.R).points())
    return np.exp(1j * mu_grid.reshape(box.shape) * t) * u0


@dataclass(frozen=True)
class VerifyReport:
    deviation_sup: float
    budget: float
    within_budget: bool
    norm_drift: float
    tail_mass_max: float
    tail_mass_initial: float
    tail_radius: int


def tail_mass(field: np.ndarray, box: LatticeBox, R: int) -> float:
    """Squared amplitude beyond sup-norm radius R."""
    far = box_sup_norms(box.R, box.d) > R
    return float(np.sum(np.abs(field[far]) ** 2))


def verify(solution: Solution, T: float, dt: float,
           tail_radius: Optional[int] = None) -> VerifyReport:
    """Integrate from the reconstructed t = 0 field and compare with the
    resummed series over the window, against an empirical budget
    1e-6 + 10 T residual.  The box is the solution's support widened by 2
    sites, and the two are compared at about 20 evenly spaced times.  Also
    tracks norm drift and tail mass.
    """
    R = solution.state.support_radius() + 2
    box = LatticeBox(solution.params.d, R)
    _, u0 = reconstruct(solution, 0.0, box)
    n_steps = int(round(T / dt))
    store_every = max(1, n_steps // 20)
    traj = integrate(u0, solution.params, box, T, dt,
                     store_every=store_every)
    if tail_radius is None:
        tail_radius = max(1, R // 2)
    dev = 0.0
    tail_max = 0.0
    for t, u in zip(traj.times, traj.states):
        _, series = reconstruct(solution, float(t), box)
        dev = max(dev, float(np.max(np.abs(u - series))))
        tail_max = max(tail_max, tail_mass(u, box, tail_radius))
    budget = 1e-6 + 10.0 * T * solution.certificates.residual
    return VerifyReport(
        deviation_sup=dev, budget=budget, within_budget=dev <= budget,
        norm_drift=traj.norm_drift, tail_mass_max=tail_max,
        tail_mass_initial=tail_mass(u0, box, tail_radius),
        tail_radius=tail_radius)
