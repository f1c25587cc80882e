"""Small-divisor estimates in executable form.

Contains the one-dimensional sublevel-measure bound, the Wronskian
determinant identity for directional derivatives of the potential, the
determinant lower bound for integer vector families, exhaustive
Diophantine-condition checks on a truncated lattice, resonance clustering
counts, and Monte-Carlo estimation of excluded phase-space measure.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lattice import frozen_mode_sites
from .potential import ModelParams, TrigPoly, base_frequencies

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class DiophParams:
    """Explicit stand-ins for the abstract constants of the small-divisor
    estimates.  All exponents are configurable; defaults are desk-scale."""

    L: int
    C1_exp: float = 8.0
    threshold_exp: Optional[float] = None  # default 1/(8b), filled per use

    def __post_init__(self):
        if self.C1_exp <= 0:
            raise ValueError("C1_exp must be positive")
        if self.L < 1:
            raise ValueError("L must be >= 1")

    def threshold(self, params: ModelParams) -> float:
        """Separation threshold (epsilon+delta)^e with e = 1/(8b) by default."""
        e = self.threshold_exp
        if e is None:
            e = 1.0 / (8.0 * params.b)
        return (params.epsilon + params.delta) ** e


def km_bound(k: int, A: float, eps: float) -> float:
    """Sublevel-measure bound zeta_k (eps/A)^(1/k) for a function whose
    k-th derivative is at least A in absolute value on the unit interval,
    with zeta_k = k(k+1)((k+1)!)^(1/k)."""
    if k < 1:
        raise ValueError("order must be >= 1")
    if A <= 0 or eps <= 0:
        raise ValueError("A and eps must be positive")
    zeta = k * (k + 1) * math.factorial(k + 1) ** (1.0 / k)
    return zeta * (eps / A) ** (1.0 / k)


def sublevel_measure_1d(samples: np.ndarray, interval: tuple[float, float],
                        eps: float) -> float:
    """Measure of {|f| <= eps} estimated from equispaced samples of f.

    Used as the brute-force oracle against km_bound.  Counts subintervals
    by the indicator at their midpoints-free trapezoid: each sample
    carries weight length/(m-1), endpoints half.
    """
    f = np.asarray(samples, dtype=float)
    if f.ndim != 1 or f.size < 1000:
        raise ValueError("need a 1-d sample array with >= 1000 points")
    if not np.all(np.isfinite(f)):
        raise ValueError("non-finite samples")
    a, b = interval
    h = (b - a) / (f.size - 1)
    ind = (np.abs(f) <= eps).astype(float)
    return float(np.trapezoid(ind, dx=h))


# -- Wronskian determinant identity ------------------------------------


@dataclass(frozen=True)
class WronskianInput:
    """Data for the derivative-determinant identity: potential, phases,
    a direction (beta, q) in phase space, and D distinct lattice sites."""

    V: TrigPoly
    alpha: tuple[float, ...]
    theta: tuple[float, ...]
    beta: tuple[float, ...]
    q: tuple[float, ...]
    sites: tuple[IntVec, ...]

    def __post_init__(self):
        d = self.V.d
        for name in ("alpha", "theta", "beta", "q"):
            if len(getattr(self, name)) != d:
                raise ValueError(f"{name} must have length d")
        if not self.sites:
            raise ValueError("need at least one site")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("sites must be distinct")
        if any(len(n) != d for n in self.sites):
            raise ValueError("site dimension mismatch")


def _wronskian_columns(inp: WronskianInput):
    """Per column (s, l): the linear form x = (l (.) n_s) . beta + q . l
    and the cosine value cos(2 pi l . (theta + n_s (.) alpha))."""
    ns = np.asarray(inp.sites, dtype=float)
    ls = np.asarray(inp.V.gamma, dtype=float)
    xs = ((ls[None, :, :] * ns[:, None, :]) @ np.asarray(inp.beta)
          + ls @ np.asarray(inp.q))
    phases = (np.asarray(inp.theta) + ns * np.asarray(inp.alpha)) @ ls.T
    return xs.ravel(), np.cos(2.0 * np.pi * phases).ravel()


def wronskian_det(inp: WronskianInput) -> tuple[float, float]:
    """Absolute determinant of the even-derivative matrix, computed two
    ways: directly, and through the cosine-times-Vandermonde product.

    The (j, c) entry of the matrix is the 2j-th derivative of the c-th
    cosine term along the direction, which is (-(2 pi x_c)^2)^j cos_c.
    The product form pulls out the cosines and one squared linear form per
    column, leaving a Vandermonde determinant in the squared forms.
    Matrices larger than 12 x 12 are refused.
    """
    xs, coss = _wronskian_columns(inp)
    R = xs.size
    if R > 12:
        raise ValueError(f"matrix size {R} exceeds cap 12")
    lam2 = (2.0 * np.pi * xs) ** 2
    W = np.empty((R, R))
    for j in range(1, R + 1):
        W[j - 1] = (-lam2) ** j * coss
    direct = _safe_abs_det(W)

    factored = float(np.prod(np.abs(coss))) * float(np.prod(lam2))
    for c in range(R):
        for cp in range(c + 1, R):
            factored *= (2.0 * np.pi) ** 2 * abs(xs[c] ** 2 - xs[cp] ** 2)
    return direct, factored


def _safe_abs_det(W: np.ndarray) -> float:
    """|det W| via LU, re-evaluated in extended precision when the matrix
    is badly conditioned (condition number above 1e12)."""
    R = W.shape[0]
    if R == 0:
        return 1.0
    cond = np.linalg.cond(W) if R > 1 else 1.0
    if np.isfinite(cond) and cond <= 1e12:
        return float(abs(np.linalg.det(W)))
    # Imported here: only this branch needs mpmath, and importing it costs
    # about 30 ms of every process's start-up.
    import mpmath
    with mpmath.workdps(50):
        return float(abs(mpmath.det(mpmath.matrix(W.tolist()))))


# -- determinant lower bound for integer families ----------------------


def bgg_check(vectors: Sequence[Sequence[float]],
              w: Sequence[float]) -> tuple[float, float, bool]:
    """For r independent vectors with 1-norm at most M, the largest inner
    product with w is bounded below by r^{-3/2} M^{1-r} |w|_2 |det|.

    Returns (lhs, rhs, holds).
    """
    V = np.asarray(vectors, dtype=float)
    wv = np.asarray(w, dtype=float)
    r = V.shape[0]
    if V.shape != (r, r):
        raise ValueError("need r vectors of length r")
    det = np.linalg.det(V)
    if abs(det) < 1e-12:
        raise ValueError("vectors are (numerically) linearly dependent")
    M = max(1.0, float(np.abs(V).sum(axis=1).max()))
    lhs = float(np.abs(V @ wv).max())
    rhs = r ** -1.5 * M ** (1.0 - r) * float(np.linalg.norm(wv)) * abs(det)
    holds = lhs >= rhs - 1e-12 * abs(rhs)
    return lhs, rhs, holds


# -- Diophantine condition report --------------------------------------


@dataclass(frozen=True)
class DCReport:
    passed: bool
    thresholds: dict
    violations: tuple[tuple, ...]  # rows (condition, witness..., value, threshold)
    indeterminate: tuple[tuple, ...] = ()

    def by_condition(self, cond: str) -> list[tuple]:
        return [v for v in self.violations if v[0] == cond]


def _cube(r: int, radius: int) -> np.ndarray:
    """Integer vectors of length r with sup norm <= radius, one per row,
    in itertools.product order."""
    return np.array(list(itertools.product(range(-radius, radius + 1),
                                           repeat=r)), dtype=int)


@functools.lru_cache(maxsize=64)
def _resonance_table(params: ModelParams, Lk: int, Ln: int):
    """Cached (ks, k . omega0, ns, mu_n) for |k| <= Lk and |n| <= Ln."""
    omega0 = base_frequencies(params)
    ks = _cube(params.b, Lk)
    ns = _cube(params.d, Ln)
    kw = np.array([float(np.dot(k, omega0)) for k in ks])
    return ks, kw, ns, params.mu_values(ns)


def check_dc_conditions(params: ModelParams, dioph: DiophParams) -> DCReport:
    """Exhaustive Diophantine checks on the truncated lattice.

    (i)   pairwise separation of the diagonal values mu_n, |n| <= L;
    (ii)  |k . omega0| bounded below for 0 < |k| <= 2L;
    (iii) |xi k . omega0 + mu_n| >= scale^{-C1} off the excited set;
    (iv)  |k . omega0 + mu_n - mu_n'| bounded below unless the combination
          vanishes identically (k = 0 and n = n').

    Rows are listed in nested-loop order over the witnesses.
    """
    L = dioph.L
    thr = dioph.threshold(params)
    eps_delta = params.epsilon + params.delta
    L_min = max(1, math.ceil(math.log(1.0 / eps_delta))) if eps_delta > 0 else 1
    ks, kw, ns, mus = _resonance_table(params, 2 * L, L)
    k_list = [tuple(k) for k in ks.tolist()]
    n_list = [tuple(n) for n in ns.tolist()]
    violations = []
    indeterminate = []

    # (i) pairwise separation of potential values.
    first, second = np.triu_indices(len(n_list), 1)
    gaps = np.abs(mus[first] - mus[second])
    for a, c, gap in zip(first.tolist(), second.tolist(), gaps.tolist()):
        if gap < thr:
            violations.append(("i", (n_list[a], n_list[c]), gap, thr))

    # (ii) small divisors of k . omega0.
    for k, val in zip(k_list, np.abs(kw).tolist()):
        if val < thr and any(k):
            violations.append(("ii", (k,), val, thr))

    # (iii) joint small divisors off the excited set, with a per-site scale.
    excited = {(k, n) for k, n, _ in frozen_mode_sites(params.sites)}
    near = np.abs(ks).max(axis=1, initial=0) <= L
    scale = np.maximum.outer(np.abs(ks[near]).max(axis=1, initial=0),
                             np.abs(ns).max(axis=1, initial=0))
    scales, where = np.unique(np.maximum(scale, L_min), return_inverse=True)
    floors = np.array([s ** (-dioph.C1_exp) for s in scales.tolist()])
    floor = floors[where.reshape(scale.shape)]
    kwn = kw[near][:, None]
    vals = np.minimum(np.abs(kwn + mus), np.abs(-kwn + mus))
    k_near = list(itertools.compress(k_list, near.tolist()))
    for a, c in np.argwhere(vals < floor).tolist():
        if (k_near[a], n_list[c]) not in excited:
            violations.append(("iii", (k_near[a], n_list[c]),
                               float(vals[a, c]), float(floor[a, c])))

    # (iv) second differences, skipping identically-zero combinations.
    cut = max(thr, 1e-13)
    for k, w in zip(k_list, kw.tolist()):
        vals = np.abs((w + mus)[:, None] - mus[None, :])
        if not any(k):
            np.fill_diagonal(vals, np.inf)  # identically zero by definition
        for a, c in np.argwhere(vals < cut).tolist():
            val = float(vals[a, c])
            row = ("iv", (k, n_list[a], n_list[c]), val, thr)
            (indeterminate if val < 1e-13 else violations).append(row)

    return DCReport(
        passed=not violations,
        thresholds={"pair": thr, "scale_floor_exp": dioph.C1_exp,
                    "L": L, "L_min": L_min},
        violations=tuple(violations),
        indeterminate=tuple(indeterminate),
    )


# -- resonance clustering ----------------------------------------------


def clustering_count(params: ModelParams, sigma: float, L: int,
                     threshold: float) -> tuple[int, list[tuple]]:
    """Largest per-sign count of near-resonant lattice points.

    For each sign xi, counts (k, n) in the truncated lattice whose
    diagonal value on layer xi, |mu_n - xi (sigma + k . omega0)| (see
    linop.diagonal_values), is below threshold, and returns the maximum of
    the two counts together with all witnesses (k, n, xi, value).
    """
    ks, kw, ns, mus = _resonance_table(params, L, L)
    best = 0
    witnesses = []
    for xi in (+1, -1):
        vals = np.abs(mus[None, :] - xi * (sigma + kw)[:, None])
        hits = np.argwhere(vals < threshold)
        best = max(best, hits.shape[0])
        for ki, ni in hits.tolist():
            witnesses.append((tuple(ks[ki].tolist()), tuple(ns[ni].tolist()),
                              xi, float(vals[ki, ni])))
    return best, witnesses


# -- Monte-Carlo excluded-measure estimation ---------------------------


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion, with the normal
    quantile z = 1.959963984540054."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 1.959963984540054
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def estimate_excluded_measure(condition: str, template: ModelParams,
                              n_samples: int, seed: int,
                              **kwargs) -> tuple[float, tuple[float, float]]:
    """Fraction of uniformly sampled (alpha, theta) failing the named
    condition, with a 95% Wilson interval.

    Conditions: "always_true" (never fails), "potential_sublevel"
    (|V(theta)| <= eta) and "dc_ii" (|k . omega0| < threshold for some
    0 < |k| <= 2L, with omega0 evaluated at the sampled phases).
    Sampling uses a counter-based generator keyed by the seed, so results
    are reproducible and independent of evaluation order.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    if condition not in ("always_true", "potential_sublevel", "dc_ii"):
        raise ValueError(f"unknown predicate id {condition!r}")
    d = template.d
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.random((n_samples, 2 * d))
    alpha, theta = draws[:, :d], draws[:, d:]
    if condition == "always_true":
        fails = np.zeros(n_samples, dtype=bool)
    elif condition == "potential_sublevel":
        fails = np.abs(template.V.values(theta)) <= kwargs["eta"]
    else:
        omega0 = np.reshape([template.V.values(theta + np.asarray(n) * alpha)
                             for n in template.sites], (template.b, n_samples))
        ks = _cube(template.b, 2 * kwargs["L"])
        ks = ks[ks.any(axis=1)]
        fails = (np.abs(omega0.T @ ks.T) < kwargs["threshold"]).any(axis=1)
    n_fail = int(fails.sum())
    return n_fail / n_samples, wilson_interval(n_fail, n_samples)
