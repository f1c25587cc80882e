"""Time-domain verification of constructed states.

A solution's Fourier table is resummed into a lattice field at any time,
and the lattice equation is integrated directly from the t = 0 field.
Agreement of the two over a time window is the independent check that the
constructed series actually solves the equation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lattice import box_sup_norms, recenter
from .linop import box_operator
from .potential import ModelParams
from .solver import Solution

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class LatticeBox:
    """Cubic index box [-R, R]^d with row-major flattening."""

    d: int
    R: int

    @property
    def shape(self) -> tuple[int, ...]:
        return (2 * self.R + 1,) * self.d

    def sites(self) -> list[IntVec]:
        return list(itertools.product(range(-self.R, self.R + 1),
                                      repeat=self.d))

    def index(self, n: IntVec) -> tuple[int, ...]:
        return tuple(c + self.R for c in n)

    def contains(self, n: IntVec) -> bool:
        return all(-self.R <= c <= self.R for c in n)


def reconstruct(solution: Solution, t: float,
                box: Optional[LatticeBox] = None) -> tuple[LatticeBox, np.ndarray]:
    """Field u(t, n) = sum_k u_hat(k, n) exp(i k . omega t) on a box."""
    state = solution.state
    if box is None:
        box = LatticeBox(state.d, max(state.support_radius(), 1))
    Rk, Rn = state.radii
    k = np.indices((2 * Rk + 1,) * state.b).reshape(state.b, -1).T - Rk
    phase = np.exp(1j * (k @ np.asarray(solution.omega, dtype=float)) * t)
    field = phase @ state.amp[..., 0].reshape(phase.size, -1)
    return box, recenter(field.reshape((2 * Rn + 1,) * state.d),
                         (box.R,) * box.d)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times),) + box.shape
    box: LatticeBox
    dt: float
    norm_drift: float


class BlowUpError(RuntimeError):
    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


def _rhs_factory(params: ModelParams,
                 box: LatticeBox) -> Callable[[np.ndarray], np.ndarray]:
    """du/dt = i ((eps hopping + V) u + delta |u|^2p u), zero padding
    outside the box."""
    L = box_operator(params, box.R)
    delta, p = params.delta, params.p

    def rhs(u: np.ndarray) -> np.ndarray:
        lin = (L @ u.ravel()).reshape(u.shape)
        if delta != 0.0:
            lin = lin + delta * np.abs(u) ** (2 * p) * u
        return 1j * lin

    return rhs


def integrate(u0: np.ndarray, params: ModelParams, box: LatticeBox,
              T: float, dt: float, store_every: int = 1) -> Trajectory:
    """Fixed-step classical RK4 integration of the lattice equation on the
    box.  Blow-up (norm above ten times the initial norm) aborts with the
    time of failure.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rhs = _rhs_factory(params, box)
    n_steps = int(round(T / dt))
    u = np.array(u0, dtype=complex)
    norm0 = np.linalg.norm(u)
    times = [0.0]
    states = [u.copy()]
    for step in range(1, n_steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = step * dt
        if np.linalg.norm(u) > 10.0 * max(norm0, 1e-300):
            raise BlowUpError(f"norm blew up at t={t:.6g}", t)
        if step % store_every == 0 or step == n_steps:
            times.append(t)
            states.append(u.copy())
    drift = abs(np.linalg.norm(u) - norm0)
    return Trajectory(np.asarray(times), np.asarray(states), box, dt,
                      float(drift))


def closed_form_decoupled(u0: np.ndarray, params: ModelParams,
                          box: LatticeBox, t: float) -> np.ndarray:
    """Exact flow for eps = delta = 0: per-site phase rotation."""
    mu_grid = box_operator(params, box.R).diagonal().real.reshape(box.shape)
    return np.exp(1j * mu_grid * t) * u0


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
