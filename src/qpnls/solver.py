"""Construction of quasi-periodic localized states.

The unknown is the real table of plus-layer Fourier amplitudes u_hat(k, n);
the minus layer of the layered lattice is its (conjugate) mirror.  The
frequency vector omega is solved from the finitely many equations at the
excited sites, and the remaining equations are solved by Newton steps on
growing regions.  All nonlinear terms are convolutions in k at fixed n.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .lattice import (Indexing, Region, Site, box_sup_norms,
                      frozen_mode_sites, index_region, recenter, sup_norm)
from .linop import (CSR, SingularOperatorError, _coo_to_csr,
                    _scipy_extension, box_operator, lattice_operator)
from .potential import ModelParams, base_frequencies

# A step counts as growth only above this relative rise.  At a truncation
# floor the residual wobbles by round-off (at most 2.5e-13 relative in the
# runs measured), while the smallest real growth in the tests is 3.7%.
_GROWTH_RTOL = 1e-9

# A singular Newton matrix reports its smallest singular value from a
# dense SVD only up to this many unknowns (a 3,000 x 3,000 real matrix is
# 72 MB); above it the value is nan.
_SVD_MAX_M = 3000

# Newton's matrix leaves out coupling entries with delta |S| <= u eps, u =
# 2^-53: each is below u times its row's hopping eps, and so is their sum
# (the kernel decays in dk), inside LU's backward error (Higham, ch. 9).
_ROUND_OFF = 2.0 ** -53


# -- state -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FourierState:
    """Plus-layer Fourier amplitudes u(k, n) on a centered box.

    amp is float64, of shape (2Rk+1,)*b + (2Rn+1,)*d: k axes, then n
    axes.  The minus layer is not stored: its coefficient at (k, n, -) is
    the conjugate of the one at (-k, n, +), which `get` and `coeffs`
    derive as Python complex, imaginary part -0.0 on the minus layer.
    from_coeffs writes the anchor amplitudes; Newton never corrects them.
    _convolved keeps the state's convolutions: amp is not written after.
    """

    amp: np.ndarray
    b: int
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def _convolved(self, p: int) -> tuple[list[np.ndarray], "FourierState"]:
        """[(u*v)^1, ..., (u*v)^p] and (u*v)^p * u, computed once per p."""
        if p not in self._kept:
            w = _uv_powers(self.amp, _mirror(self.amp, self.b), self.b, p)
            self._kept[p] = w, FourierState(_conv(self.amp, w[-1], self.b),
                                            self.b)
        return self._kept[p]

    @classmethod
    def from_coeffs(cls, coeffs: dict, b: int, d: int,
                    anchors: dict) -> "FourierState":
        """State on the smallest box that holds real plus-layer
        {(k, n, 1): value} maps; other keys or values raise ValueError."""
        values = {**coeffs, **anchors}
        if any(xi != 1 or np.imag(v) for (_, _, xi), v in values.items()):
            raise ValueError("amplitudes are real and on the plus layer; "
                             "the minus layer is derived, not stored")
        Rk, Rn = (max((sup_norm(s[j]) for s in values), default=0)
                  for j in (0, 1))
        amp = np.zeros((2 * Rk + 1,) * b + (2 * Rn + 1,) * d)
        for (k, n, _), value in values.items():
            amp[(*(c + Rk for c in k), *(c + Rn for c in n))] = np.real(value)
        return cls(amp, b)

    @property
    def d(self) -> int:
        return self.amp.ndim - self.b

    @property
    def radii(self) -> tuple[int, int]:
        """(Rk, Rn), the box radii in k and in n."""
        shape = self.amp.shape
        return (shape[0] - 1) // 2 if self.b else 0, (shape[self.b] - 1) // 2

    @property
    def coeffs(self) -> dict:
        """The nonzero amplitudes of both layers as {(k, n, xi): value}:
        each plus entry in box order, followed by its minus mirror."""
        Rk, Rn = self.radii
        nz = np.argwhere(self.amp)
        sites = (nz - ([Rk] * self.b + [Rn] * self.d)).tolist()
        return {(tuple(xi * c for c in row[:self.b]), tuple(row[self.b:]), xi):
                complex(value) if xi > 0 else complex(value).conjugate()
                for row, value in zip(sites, self.amp[tuple(nz.T)].tolist())
                for xi in (1, -1)}

    def get(self, site: Site) -> complex:
        (Rk, Rn), (k, n, xi) = self.radii, site
        if sup_norm(k) > Rk or sup_norm(n) > Rn:
            return 0j
        value = self.amp[(*(xi * c + Rk for c in k), *(c + Rn for c in n))]
        return complex(value) if xi > 0 else complex(value).conjugate()

    def support_radius(self) -> int:
        """Largest sup norm of (k, n) over the nonzero amplitudes."""
        center = (np.array(self.amp.shape) - 1) // 2
        return int(np.abs(np.argwhere(self.amp) - center).max(initial=0))


def _mirror(arr: np.ndarray, b: int) -> np.ndarray:
    """arr(-k, n), k the first b axes: the other layer's (real) values."""
    return np.flip(arr, axis=tuple(range(b)))


def anchor_sites(params: ModelParams) -> dict:
    """Map from the plus-layer anchor sites to their exact amplitudes."""
    out = {}
    for l, n in enumerate(params.sites):
        e = tuple(1 if j == l else 0 for j in range(params.b))
        out[(e, tuple(n), +1)] = float(params.a[l])
    return out


def initial_state(params: ModelParams) -> FourierState:
    """Single-mode seed: amplitude a_l at (e_l, n_l, +) plus conjugates."""
    return FourierState.from_coeffs({}, params.b, params.d,
                                    anchor_sites(params))


def symmetrize(layered: np.ndarray, b: int) -> FourierState:
    """Fold a layered box array (k axes, n axes, then + before -) onto
    the plus layer by averaging the two determinations of each
    coefficient, u and the mirror of v."""
    u, v = layered[..., 0], layered[..., 1]
    return FourierState(0.5 * (u + _mirror(v, b)), b)


# -- convolutions in k at fixed n --------------------------------------


def _conv(a: np.ndarray, c: np.ndarray, nk: int) -> np.ndarray:
    """Full convolution over the first nk (k) axes, batched and broadcast
    over the trailing ones.  A direct sum of shifted products, so entries
    that no product reaches stay exactly zero."""
    if math.prod(a.shape[:nk]) > math.prod(c.shape[:nk]):
        a, c = c, a
    out = np.zeros(tuple(x + y - 1 for x, y in zip(a.shape[:nk], c.shape[:nk]))
                   + np.broadcast_shapes(a.shape[nk:], c.shape[nk:]),
                   dtype=np.result_type(a, c))
    live = np.argwhere(a.reshape(a.shape[:nk] + (-1,)).any(axis=-1))
    for j in map(tuple, live.tolist()):
        out[tuple(slice(i, i + w) for i, w in zip(j, c.shape))] += a[j] * c
    return out


def _uv_powers(u: np.ndarray, v: np.ndarray, b: int,
               p: int) -> list[np.ndarray]:
    """[(u*v)^1, ..., (u*v)^p], powers under convolution in k."""
    powers = [_conv(u, v, b)]
    for _ in range(p - 1):
        powers.append(_conv(powers[-1], powers[0], b))
    return powers


def convolution_nonlinearity(state: FourierState, p: int) -> FourierState:
    """The plus layer's nonlinear term (u*v)^p * u, convolving in k at
    each fixed n; the minus layer's (u*v)^p * v is its mirror.

    The result lives on the state's n box and k radius (2p+1) Rk.  The
    state keeps it: each call with this p returns the same object.
    """
    return state._convolved(p)[1]


# -- residual ----------------------------------------------------------


def evaluate_F(state: FourierState, omega: Sequence[float],
               params: ModelParams) -> FourierState:
    """Residual of the plus-layer lattice equations at the current state,
    (-k . omega + mu_n) u + eps (hopping in n) u + delta (u*v)^p * u; the
    minus-layer rows are its mirror.  Returned on the
    nonlinearity's box, k radius (2p+1) Rk, widened by one hopping step
    in n, which holds every row the state or the nonlinearity reaches.
    D and the hopping are diagonal in k, so box_operator builds them on
    the state's own k box and the matvec is zero-padded: each row beyond
    that k box would be +0 exactly.
    """
    b, d = state.b, state.d
    nl = convolution_nonlinearity(state, params.p)
    Rk, Rn = state.radii
    own = (Rk,) * b + (Rn + 1,) * d
    radii = (nl.radii[0],) * b + own[b:]
    u = recenter(state.amp, own)
    linear = box_operator(params, omega, own) @ u.ravel()
    return FourierState(recenter(linear.reshape(u.shape), radii)
                        + params.delta * recenter(nl.amp, radii), b)


def residual_sup(residual: FourierState) -> float:
    return float(np.abs(residual.amp).max(initial=0.0))


# -- frequency (Q) equations -------------------------------------------


def _frequency_update(F: FourierState, omega: Sequence[float],
                      params: ModelParams) -> np.ndarray:
    """omega + Re F_anchor / a, with F the residual at omega.  The row
    (e_l, n_l, +) is affine in omega_l with slope -a_l and no other term
    depends on omega, so this solves the excited-site equations exactly."""
    rows = [F.get(site) for site in anchor_sites(params)]
    return omega + np.real(rows) / np.asarray(params.a, dtype=float)


def solve_Q(state: FourierState, params: ModelParams) -> np.ndarray:
    """The frequencies solved from the residual at the base frequencies."""
    om0 = base_frequencies(params)
    return _frequency_update(evaluate_F(state, om0, params), om0, params)


# -- Newton step -------------------------------------------------------


def linearization_coupling(state: FourierState, params: ModelParams,
                           N: int) -> dict:
    """Derivative of the plus-layer nonlinearity as a k-Toplitz,
    n-diagonal kernel {(dk, n, +1, xi'): value} (see
    linop.lattice_operator) for the cube of size N, |dk| <= 2N and
    |n| <= N: (p+1)(u*v)^p on the plus layer and p (u*v)^(p-1) * u * u
    on the minus one; the minus rows are their mirror.  Entries with
    delta |S| <= _ROUND_OFF eps are cut; F keeps them."""
    p, b = params.p, state.b
    u = state.amp
    powers = state._convolved(p)[0]
    uu = _conv(u, u, b)
    if p >= 2:
        uu = _conv(powers[-2], uu, b)
    radii = (2 * N,) * b + (N,) * state.d
    kernel = {}
    for xip, arr in ((+1, (p + 1) * powers[-1]), (-1, p * uu)):
        window = recenter(arr, radii)
        nz = np.argwhere(params.delta * np.abs(window)
                         > _ROUND_OFF * params.epsilon)
        for at, val in zip((nz - radii).tolist(),
                           window[tuple(nz.T)].tolist()):
            kernel[(tuple(at[:b]), tuple(at[b:]), +1, xip)] = val
    return kernel


# The extension module behind scipy.sparse.linalg.splu.
_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def _sparse_lu(A: CSR):
    """splu(A, permc_spec="MMD_AT_PLUS_A") on a bitwise symmetric A, whose
    CSR arrays are its CSC arrays: the same gstrf call, so the same factors
    (the matrices of SuperLU.L and .U, never read here, would need
    csc_construct_func).  Raises RuntimeError when the factor is exactly
    singular."""
    # The pattern is symmetric, so a minimum-degree order on A^T + A fills
    # less than the default column order (COLAMD).
    return _scipy_extension(_SUPERLU).gstrf(
        A.m, int(A.indptr[-1]), A.data, A.indices, A.indptr,
        csc_construct_func=None, ilu=False,
        options=dict(DiagPivotThresh=None, ColPerm="MMD_AT_PLUS_A",
                     PanelSize=None, Relax=None))


def _newton_matrix(state: FourierState, omega: Sequence[float],
                   params: ModelParams, N: int) -> tuple[np.ndarray, CSR]:
    """Newton's unknowns, the plus sites of the cube of size N minus the
    anchors, as (k, n) positions, and the P x P matrix A + B:
    lattice_operator on the P plus sites, then their P mirror sites
    (-k, n, -), whose plus rows read A x + B conj(x) with A, B and x real,
    so column j + P folds onto column j.  Exact zeros are left out.  A + B
    is bitwise symmetric: A's coupling block is an autocorrelation in k,
    which _conv sums in the same order at +dk and -dk, and B's is Hankel."""
    b, d = params.b, params.d
    idx = index_region(Region.cube(b + d, N), b,
                       frozen_mode_sites(params.sites))
    plus = idx.positions[idx.layers > 0]
    P = len(plus)
    both = Indexing(np.concatenate([plus, plus * ([-1] * b + [1] * d)]),
                    np.repeat(np.array([1, -1]), P), b)
    S = linearization_coupling(state, params, N)
    A = lattice_operator(params, omega, both, 0.0, S)
    stop = A.indptr[P]
    rows = np.repeat(np.arange(P), np.diff(A.indptr[:P + 1]))
    vals = A.data[:stop]
    keep = vals != 0.0
    return plus, _coo_to_csr(P, rows[keep], A.indices[:stop][keep] % P,
                             vals[keep])


def newton_step(state: FourierState, omega: Sequence[float],
                params: ModelParams, N: int) -> tuple[FourierState, float]:
    """One Newton correction on the cube of size N, excited sites frozen.

    The plus rows of the layered system read A x + B conj(x) = F in the
    plus-layer correction x; the state is real, so A, B, F and x are, and
    the system is A + B, P unknowns (_newton_matrix), solved by a sparse LU
    (SuperLU, minimum-degree order on A^T + A, through _sparse_lu) and
    subtracted from the plus layer.  No dense m x m array is built, except
    for the SVD reporting the smallest singular value of an exactly singular,
    finite matrix of at most _SVD_MAX_M unknowns (nan otherwise)."""
    plus, A = _newton_matrix(state, omega, params, N)
    Rk, Rn = state.radii
    radii = (max(Rk, N),) * params.b + (max(Rn, N),) * params.d
    at = tuple((plus + radii).T)
    F = recenter(evaluate_F(state, omega, params).amp, radii)[at]
    try:
        x = _sparse_lu(A).solve(F)
    except RuntimeError as exc:  # SuperLU: factor is exactly singular
        message, smin = f"linearized operator singular on cube N={N}", math.nan
        if not np.isfinite(A.data).all():
            message += "; the matrix is not finite"
        elif A.m <= _SVD_MAX_M:
            smin = float(np.linalg.svd(A.toarray(), compute_uv=False)[-1])
        else:
            message += (f"; smallest singular value not computed for "
                        f"m={A.m} > {_SVD_MAX_M}")
        raise SingularOperatorError(message, smin) from exc
    amp = recenter(state.amp, radii)
    amp[at] -= x
    corr = float(np.max(np.abs(x))) if x.size else 0.0
    return FourierState(amp, params.b), corr


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
    stop_reason: str  # "converged", "stalled" or "max_steps"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def newton_steps(self) -> int:
        return len(self.trace.steps)


def decay_sum(state: FourierState, params: ModelParams) -> float:
    """Weighted amplitude sum over the plus layer away from the anchors:
    sum |u(k, n)| exp(|k| + |n|)."""
    Rk, Rn = state.radii
    plus = np.abs(state.amp)
    for k, n, _ in anchor_sites(params):
        plus[(*(c + Rk for c in k), *(c + Rn for c in n))] = 0.0
    weight = np.exp(np.add.outer(box_sup_norms(Rk, state.b),
                                 box_sup_norms(Rn, state.d)))
    return float(np.sum(plus * weight))


def certificates_for(state: FourierState, omega: Sequence[float],
                     params: ModelParams) -> Certificates:
    res = residual_sup(evaluate_F(state, omega, params))
    omega0 = base_frequencies(params)
    return Certificates(
        residual=res,
        decay_sum=decay_sum(state, params),
        conjugacy_defect=0.0,  # the minus layer is the mirror itself
        omega_shift=float(np.max(np.abs(np.asarray(omega) - omega0))),
    )


class DivergedError(RuntimeError):
    def __init__(self, message: str, trace: NewtonTrace):
        super().__init__(message)
        self.trace = trace


@np.errstate(over="ignore", invalid="ignore")
def run_solver(params: ModelParams, M: int = 2, r_max: int = 10,
               tol: float = 1e-11, N_cap: int = 16) -> Solution:
    """Newton corrections on growing cubes N_r = min(M^(r+1), N_cap)
    until the residual is below tol, with the frequencies solved from
    each state before the next step.

    Divergence (residual growth beyond round-off on two consecutive
    steps) and overflow (a non-finite residual or correction, numpy's
    warnings silenced) abort with the trace.
    """
    state = initial_state(params)
    omega = solve_Q(state, params)
    res = residual_sup(evaluate_F(state, omega, params))
    if not math.isfinite(res):
        raise DivergedError("non-finite initial residual", NewtonTrace(()))
    steps = []
    growth = 0
    for r in range(r_max):
        if res < tol:
            break
        N = min(M ** (r + 1), N_cap)
        prev_res = res
        state, corr = newton_step(state, omega, params, N)
        F = evaluate_F(state, omega, params)
        res = residual_sup(F)
        anchor_err = max(abs(state.get(s) - v)
                         for s, v in anchor_sites(params).items())
        steps.append({"r": r, "N": N, "residual": res, "correction": corr,
                      "omega": tuple(float(x) for x in omega),
                      "conjugacy_defect": 0.0,
                      "anchor_error": float(anchor_err)})
        if not (math.isfinite(res) and math.isfinite(corr)):
            raise DivergedError("non-finite residual or correction",
                                NewtonTrace(tuple(steps)))
        growth = growth + 1 if res > prev_res * (1 + _GROWTH_RTOL) else 0
        if growth >= 2:
            raise DivergedError(
                f"residual grew twice in a row (last {res:.3e})",
                NewtonTrace(tuple(steps)))
        omega = _frequency_update(F, omega, params)
    certs = certificates_for(state, omega, params)
    # Stalled: unconverged after two steps at N_cap whose residual fell by
    # less than half.
    stalled = (len(steps) >= 2 and all(s["N"] == N_cap for s in steps[-2:])
               and steps[-1]["residual"] > 0.5 * steps[-2]["residual"])
    return Solution(state, tuple(float(x) for x in omega), params, certs,
                    NewtonTrace(tuple(steps)), stop_reason="converged" if certs.residual < tol
                    else "stalled" if stalled else "max_steps")


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
        "certificates": asdict(sol.certificates),
        "trace": list(sol.trace.steps),
        "converged": sol.converged,
        "newton_steps": sol.newton_steps,
        "stop_reason": sol.stop_reason,
    }


def solution_from_record(rec: dict) -> Solution:
    params = ModelParams.from_record(rec["params"])
    coeffs = {(tuple(int(c) for c in row["k"]),
               tuple(int(c) for c in row["n"]), 1):
              complex(row["re"], row["im"])
              for row in rec["coeffs"] if int(row["xi"]) > 0}
    state = FourierState.from_coeffs(coeffs, params.b, params.d,
                                     anchor_sites(params))
    return Solution(state, tuple(float(x) for x in rec["omega"]), params,
                    Certificates(**rec["certificates"]),
                    NewtonTrace(tuple(rec["trace"])), rec["stop_reason"])
