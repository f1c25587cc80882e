"""Construction of quasi-periodic localized states.

The unknown is a table of Fourier amplitudes u_hat(k, n) on the layered
lattice, with the minus layer tied to the plus layer by conjugacy.  The
frequency vector omega is solved from the finitely many equations at the
excited sites, and the remaining equations are solved by Newton steps on
growing regions.  All nonlinear terms are convolutions in k at fixed n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.signal

from .lattice import Indexing, Region, Site, frozen_mode_sites, sup_norm
from .linop import (ShortRangeOperator, SingularOperatorError, assemble_H,
                    index_sites, lattice_operator)
from .potential import ModelParams, base_frequencies

IntVec = tuple[int, ...]


# -- state -------------------------------------------------------------


@dataclass
class FourierState:
    """Fourier amplitudes keyed by layered site.

    The minus layer mirrors the plus layer through conjugacy
    (coefficient at (k, n, -) equals the conjugate at (-k, n, +)), and
    the anchor amplitudes at the excited sites are held exactly.
    """

    coeffs: dict
    b: int
    d: int
    anchors: dict  # (k, n, +1) site -> exact amplitude

    def copy(self) -> "FourierState":
        return FourierState(dict(self.coeffs), self.b, self.d,
                            dict(self.anchors))

    def get(self, site: Site) -> complex:
        return self.coeffs.get(site, 0.0 + 0.0j)

    def set(self, site: Site, value: complex,
            drop_tol: float = 0.0) -> None:
        if site in self.anchors:
            return
        if value == 0.0 or abs(value) <= drop_tol:
            self.coeffs.pop(site, None)
        else:
            self.coeffs[site] = complex(value)

    def support_radius(self) -> int:
        if not self.coeffs:
            return 0
        return max(max(sup_norm(k), sup_norm(n))
                   for k, n, _ in self.coeffs)

    def k_radius(self) -> int:
        if not self.coeffs:
            return 0
        return max(sup_norm(k) for k, _, _ in self.coeffs)

    def conjugacy_defect(self) -> float:
        worst = 0.0
        for (k, n, xi), val in self.coeffs.items():
            mirror = self.get((tuple(-c for c in k), n, -xi))
            worst = max(worst, abs(val - np.conj(mirror)))
        return float(worst)

    def enforce_anchors(self) -> None:
        for site, value in self.anchors.items():
            self.coeffs[site] = complex(value)
            k, n, xi = site
            self.coeffs[(tuple(-c for c in k), n, -xi)] = complex(
                np.conj(value))


def anchor_sites(params: ModelParams) -> dict:
    """Map from the plus-layer anchor sites to their exact amplitudes."""
    out = {}
    for l, n in enumerate(params.sites):
        e = tuple(1 if j == l else 0 for j in range(params.b))
        out[(e, tuple(n), +1)] = complex(params.a[l])
    return out


def initial_state(params: ModelParams) -> FourierState:
    """Single-mode seed: amplitude a_l at (e_l, n_l, +) plus conjugates."""
    anchors = anchor_sites(params)
    state = FourierState({}, params.b, params.d, anchors)
    state.enforce_anchors()
    return state


def symmetrize(state: FourierState) -> FourierState:
    """Project onto the conjugacy-symmetric subspace by averaging the two
    determinations of each coefficient.  Idempotent."""
    out = state.copy()
    seen = set()
    new = {}
    for site in list(out.coeffs):
        if site in seen:
            continue
        k, n, xi = site
        mirror = (tuple(-c for c in k), n, -xi)
        a = out.get(site)
        bm = out.get(mirror)
        avg = 0.5 * (a + np.conj(bm))
        if avg != 0.0:
            new[site] = avg
            new[mirror] = np.conj(avg)
        seen.add(site)
        seen.add(mirror)
    out.coeffs = new
    out.enforce_anchors()
    return out


# -- convolutions in k at fixed n --------------------------------------


def _layer_arrays(state: FourierState, R: int) -> dict:
    """Dense k-arrays (k in [-R, R]^b) of both layers at every n of the
    support, as n -> (plus, minus), from one pass over the coefficients."""
    shape = (2 * R + 1,) * state.b
    out = {}
    for (k, n, xi), val in state.coeffs.items():
        if n not in out:
            out[n] = (np.zeros(shape, dtype=complex),
                      np.zeros(shape, dtype=complex))
        out[n][0 if xi > 0 else 1][tuple(c + R for c in k)] = val
    return out


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    method = "direct" if max(a.size, b.size) < 256 else "auto"
    return scipy.signal.convolve(a, b, mode="full", method=method)


def _entries(arr: np.ndarray, R: int):
    """(k, value) for the nonzero entries of a k-array centered at R."""
    nz = np.argwhere(np.abs(arr) > 0)
    return zip(map(tuple, (nz - R).tolist()), arr[tuple(nz.T)].tolist())


def _uv_powers(u: np.ndarray, v: np.ndarray, p: int) -> list[np.ndarray]:
    """[(u*v)^1, ..., (u*v)^p], powers under convolution in k."""
    powers = [_conv(u, v)]
    for _ in range(p - 1):
        powers.append(_conv(powers[-1], powers[0]))
    return powers


def convolution_nonlinearity(state: FourierState, p: int) -> dict:
    """Nonlinear terms per layer: (u*v)^p * u on the plus layer and
    (u*v)^p * v on the minus layer, convolving in k at each fixed n.

    Returns a coefficient map over layered sites; the k-support grows to
    (2p+1) times the input support.
    """
    R = state.k_radius()
    Rout = R * (2 * p + 1)
    out = {}
    for n, (u, v) in _layer_arrays(state, R).items():
        w = _uv_powers(u, v, p)[-1]
        for arr, xi in ((_conv(w, u), +1), (_conv(w, v), -1)):
            for k, val in _entries(arr, Rout):
                out[(k, n, xi)] = val
    return out


# -- residual ----------------------------------------------------------


def _hopping_halo(sites: Iterable[Site]) -> set:
    """The sites one unit step in n away from the given ones."""
    return {(k, n[:j] + (n[j] + step,) + n[j + 1:], xi)
            for k, n, xi in sites for j in range(len(n)) for step in (-1, 1)}


def _lattice_rows(state: FourierState, omega: Sequence[float],
                  params: ModelParams, nl: dict,
                  rows: set) -> tuple[Indexing, np.ndarray]:
    """(D + eps hopping) u + delta nl on a set of rows.  A row's value is
    exact when the rows hold each of its neighbours in the support."""
    idx = index_sites(rows)
    u = np.fromiter(map(state.get, idx.sites), dtype=complex, count=idx.m)
    values = lattice_operator(params, omega, idx) @ u
    if params.delta != 0.0:
        values += params.delta * np.fromiter(
            (nl.get(s, 0.0) for s in idx.sites), dtype=complex, count=idx.m)
    return idx, values


def evaluate_F(state: FourierState, omega: Sequence[float],
               params: ModelParams) -> dict:
    """Residual of the lattice equations at the current state.

    Plus-layer rows: (-k . omega + mu_n) u + eps (hopping in n) u
    + delta (u*v)^p * u; minus-layer rows are the conjugate mirror.
    Evaluated on the state's support, the nonlinearity support, and one
    hopping halo in n; only nonzero entries are returned.
    """
    if not state.coeffs:
        return {}
    nl = (convolution_nonlinearity(state, params.p)
          if params.delta != 0.0 else {})
    rows = set(state.coeffs) | set(nl)
    if params.epsilon != 0.0:
        rows |= _hopping_halo(state.coeffs)
    idx, values = _lattice_rows(state, omega, params, nl, rows)
    nz = np.flatnonzero(values)
    return dict(zip(map(idx.sites.__getitem__, nz.tolist()),
                    values[nz].tolist()))


def residual_sup(residual: dict, exclude: Iterable[Site] = ()) -> float:
    excl = frozenset(exclude)
    return float(max((abs(v) for s, v in residual.items() if s not in excl),
                     default=0.0))


# -- frequency (Q) equations -------------------------------------------


def solve_Q(state: FourierState, params: ModelParams,
            omega_guess: Optional[Sequence[float]] = None,
            tol: float = 1e-13, max_iter: int = 200) -> np.ndarray:
    """Solve the equations at the excited sites for the frequencies.

    The residual at the anchor (e_l, n_l, +) is (omega0_l - omega_l) a_l
    + (eps hopping + delta nonlinearity at the anchor), so each sweep
    sets omega_l += Re F_anchor / a_l.  The hopping and nonlinearity do
    not depend on omega: the fixed point is reached immediately and later
    sweeps only confirm it.
    """
    om = np.asarray(omega_guess, dtype=float) if omega_guess is not None \
        else base_frequencies(params)
    nl = (convolution_nonlinearity(state, params.p)
          if params.delta != 0.0 else {})
    anchors = list(anchor_sites(params))
    rows = set(anchors) | _hopping_halo(anchors)
    a = np.asarray(params.a, dtype=float)
    for _ in range(max_iter):
        idx, values = _lattice_rows(state, om, params, nl, rows)
        F = np.array([values[idx[site]] for site in anchors])
        new = om + F.real / a
        if np.max(np.abs(new - om)) < tol:
            return new
        om = new
    raise RuntimeError(
        f"frequency solve did not converge; last iterates {om} -> {new}")


# -- Newton step -------------------------------------------------------


def linearization_coupling(state: FourierState, params: ModelParams,
                           n_values: Iterable[IntVec],
                           dk_radius: int) -> ShortRangeOperator:
    """Derivative of the nonlinearity as a k-Toplitz, n-diagonal kernel.

    Diagonal layer blocks carry (p+1)(u*v)^p; the cross-layer blocks
    carry p (u*v)^(p-1) * u * u and its conjugate mirror.
    """
    p = params.p
    layers = _layer_arrays(state, state.k_radius())
    kernel = {}
    for n in n_values:
        if n not in layers:
            continue
        u, v = layers[n]
        powers = _uv_powers(u, v, p)
        uu = _conv(u, u)
        vv = _conv(v, v)
        if p >= 2:
            uu = _conv(powers[-2], uu)
            vv = _conv(powers[-2], vv)
        blocks = {
            (+1, +1): (p + 1) * powers[-1],
            (-1, -1): (p + 1) * powers[-1],
            (+1, -1): p * uu,
            (-1, +1): p * vv,
        }
        for (xi, xip), arr in blocks.items():
            for dk, val in _entries(arr, (arr.shape[0] - 1) // 2):
                if sup_norm(dk) <= dk_radius:
                    kernel[(dk, n, xi, xip)] = val
    return ShortRangeOperator(kernel=kernel, decay_const=1e6,
                              decay_rate=1.0)


def newton_step(state: FourierState, omega: Sequence[float],
                params: ModelParams, N: int) -> tuple[FourierState, float]:
    """One Newton correction on the cube of size N, excited sites frozen.

    Assembles the linearized operator (diagonal + hopping + nonlinearity
    coupling) on the layered cube minus the excited set, solves for the
    correction against the current residual, and subtracts it.
    """
    region = Region.cube(params.b + params.d, N)
    excl = frozen_mode_sites(params.sites)
    n_values = set()
    for y in region.sites():
        n_values.add(y[params.b:])
    S = linearization_coupling(state, params, n_values, dk_radius=2 * N)
    op = assemble_H(params, omega, region, sigma=0.0, S=S, exclude=excl)
    residual = evaluate_F(state, omega, params)
    rhs = np.array([residual.get(s, 0.0) for s in op.indexing.sites],
                   dtype=complex)
    try:
        delta = np.linalg.solve(op.matrix, rhs)
    except np.linalg.LinAlgError as exc:
        svals = np.linalg.svd(op.matrix, compute_uv=False)
        raise SingularOperatorError(
            f"linearized operator singular on cube N={N}", float(svals[-1])
        ) from exc
    new = state.copy()
    for i, site in enumerate(op.indexing.sites):
        new.set(site, new.get(site) - delta[i])
    new.enforce_anchors()
    corr = float(np.max(np.abs(delta))) if delta.size else 0.0
    return new, corr


# -- full run ----------------------------------------------------------


@dataclass(frozen=True)
class NewtonTrace:
    steps: tuple[dict, ...]  # per step: r, N, residual, correction, omega

    def residuals(self) -> list[float]:
        return [s["residual"] for s in self.steps]

    def corrections(self) -> list[float]:
        return [s["correction"] for s in self.steps]


@dataclass(frozen=True)
class Certificates:
    residual: float
    decay_sum: float
    conjugacy_defect: float
    omega_shift: float


@dataclass(frozen=True)
class Solution:
    state: FourierState
    omega: tuple[float, ...]
    params: ModelParams
    certificates: Certificates
    trace: NewtonTrace
    converged: bool
    newton_steps: int


def decay_sum(state: FourierState, params: ModelParams) -> float:
    """Weighted amplitude sum over the plus layer away from the anchors:
    sum |u(k, n)| exp(|k| + |n|)."""
    anchors = set(anchor_sites(params))
    total = 0.0
    for site, val in state.coeffs.items():
        if site[2] < 0 or site in anchors:
            continue
        k, n, _ = site
        total += abs(val) * math.exp(sup_norm(k) + sup_norm(n))
    return total


def certificates_for(state: FourierState, omega: Sequence[float],
                     params: ModelParams) -> Certificates:
    res = residual_sup(evaluate_F(state, omega, params))
    omega0 = base_frequencies(params)
    return Certificates(
        residual=res,
        decay_sum=decay_sum(state, params),
        conjugacy_defect=state.conjugacy_defect(),
        omega_shift=float(np.max(np.abs(np.asarray(omega) - omega0))),
    )


class DivergedError(RuntimeError):
    def __init__(self, message: str, trace: NewtonTrace):
        super().__init__(message)
        self.trace = trace


def run_solver(params: ModelParams, M: int = 2, r_max: int = 10,
               tol: float = 1e-11, N_cap: int = 16,
               q_before_p: bool = True) -> Solution:
    """Alternating frequency solves and Newton corrections on growing
    cubes N_r = min(M^(r+1), N_cap) until the residual is below tol.

    The state is re-symmetrized after every correction; divergence
    (residual growth on two consecutive steps) aborts with the trace.
    """
    state = initial_state(params)
    omega = solve_Q(state, params)
    steps = []
    res = residual_sup(evaluate_F(state, omega, params))
    if res < tol:
        trace = NewtonTrace(tuple(steps))
        return Solution(state, tuple(omega), params,
                        certificates_for(state, omega, params), trace,
                        converged=True, newton_steps=0)
    growth = 0
    prev_res = res
    for r in range(r_max):
        N = min(M ** (r + 1), N_cap)
        if q_before_p:
            omega = solve_Q(state, params, omega)
        state, corr = newton_step(state, omega, params, N)
        state = symmetrize(state)
        if not q_before_p:
            omega = solve_Q(state, params, omega)
        res = residual_sup(evaluate_F(state, omega, params))
        anchor_err = max(abs(state.get(s) - v)
                         for s, v in state.anchors.items())
        steps.append({"r": r, "N": N, "residual": res, "correction": corr,
                      "omega": tuple(float(x) for x in omega),
                      "conjugacy_defect": state.conjugacy_defect(),
                      "anchor_error": float(anchor_err)})
        if not (math.isfinite(res) and math.isfinite(corr)):
            raise DivergedError("non-finite residual or correction",
                                NewtonTrace(tuple(steps)))
        if res < tol:
            break
        growth = growth + 1 if res > prev_res else 0
        if growth >= 2:
            raise DivergedError(
                f"residual grew twice in a row (last {res:.3e})",
                NewtonTrace(tuple(steps)))
        prev_res = res
    omega = solve_Q(state, params, omega)
    trace = NewtonTrace(tuple(steps))
    certs = certificates_for(state, omega, params)
    return Solution(state, tuple(float(x) for x in omega), params, certs,
                    trace, converged=bool(certs.residual < tol),
                    newton_steps=len(steps))


# -- persistence -------------------------------------------------------


def solution_to_record(sol: Solution) -> dict:
    return {
        "params": sol.params.to_record(),
        "omega": list(sol.omega),
        "coeffs": [
            {"k": list(k), "n": list(n), "xi": int(xi),
             "re": float(np.real(v)), "im": float(np.imag(v))}
            for (k, n, xi), v in sorted(sol.state.coeffs.items())
        ],
        "certificates": {
            "residual": sol.certificates.residual,
            "decay_sum": sol.certificates.decay_sum,
            "conjugacy_defect": sol.certificates.conjugacy_defect,
            "omega_shift": sol.certificates.omega_shift,
        },
        "trace": list(sol.trace.steps),
        "converged": sol.converged,
        "newton_steps": sol.newton_steps,
    }


def solution_from_record(rec: dict) -> Solution:
    params = ModelParams.from_record(rec["params"])
    coeffs = {}
    for row in rec["coeffs"]:
        site = (tuple(int(c) for c in row["k"]),
                tuple(int(c) for c in row["n"]), int(row["xi"]))
        coeffs[site] = complex(row["re"], row["im"])
    state = FourierState(coeffs, params.b, params.d, anchor_sites(params))
    c = rec["certificates"]
    certs = Certificates(c["residual"], c["decay_sum"],
                         c["conjugacy_defect"], c["omega_shift"])
    trace = NewtonTrace(tuple(rec["trace"]))
    return Solution(state, tuple(float(x) for x in rec["omega"]), params,
                    certs, trace, bool(rec["converged"]),
                    int(rec["newton_steps"]))
