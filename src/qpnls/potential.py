"""Trigonometric-polynomial potentials and the model parameter bundle.

The potential V(theta) = sum_l v_l cos(2 pi l . theta + phase_l) is stored
term by term.  Structural validity (no zero components, no opposite
frequency pairs, per-coordinate non-degeneracy) is checked by `validate`,
which returns a report rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

IntVec = tuple[int, ...]


def _integer(x) -> int:
    """x as an int: an int other than a bool, or an integral float."""
    integral = isinstance(x, float) and x.is_integer()
    if isinstance(x, bool) or not (isinstance(x, int) or integral):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


@dataclass(frozen=True)
class TrigPoly:
    """Real trigonometric polynomial on the d-torus.

    Terms are cos(2 pi l . theta + phase) with integer frequency vectors
    l in [-K, K]^d and real coefficients v.  Phases default to zero
    (pure cosine series).
    """

    d: int
    K: int
    gamma: tuple[IntVec, ...]
    v: tuple[float, ...]
    phases: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.gamma) != len(self.v):
            raise ValueError("gamma and v length mismatch")
        if not self.phases:
            object.__setattr__(self, "phases", (0.0,) * len(self.gamma))
        if len(self.phases) != len(self.gamma):
            raise ValueError("phases length mismatch")
        for l in self.gamma:
            if len(l) != self.d:
                raise ValueError("frequency vector dimension mismatch")
            if any(abs(c) > self.K for c in l):
                raise ValueError("frequency component exceeds K")

    @staticmethod
    def cosine(d: int = 1) -> "TrigPoly":
        """V(theta) = cos(2 pi (theta_1 + ... + theta_d))."""
        return TrigPoly(d=d, K=1, gamma=((1,) * d,), v=(1.0,))

    def __call__(self, theta: Sequence[float]) -> float:
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.d,):
            raise ValueError(f"theta must have shape ({self.d},)")
        return float(self.values(th[None, :])[0])

    def values(self, thetas: np.ndarray) -> np.ndarray:
        """V at each row of an (m, d) array of angles."""
        th = np.asarray(thetas, dtype=float)
        total = np.zeros(th.shape[0])
        for l, coeff, ph in zip(self.gamma, self.v, self.phases):
            total += coeff * np.cos(
                2.0 * np.pi * (th @ np.asarray(l, dtype=float)) + ph)
        return total

    # -- serialization -------------------------------------------------
    def to_record(self) -> dict:
        return {
            "d": self.d,
            "K": self.K,
            "terms": [
                {"l": list(l), "v": coeff, "phase": ph}
                for l, coeff, ph in zip(self.gamma, self.v, self.phases)
            ],
        }

    @staticmethod
    def from_record(rec: dict) -> "TrigPoly":
        terms = rec["terms"]
        return TrigPoly(
            d=_integer(rec["d"]),
            K=_integer(rec["K"]),
            gamma=tuple(tuple(map(_integer, t["l"])) for t in terms),
            v=tuple(float(t["v"]) for t in terms),
            phases=tuple(float(t.get("phase", 0.0)) for t in terms),
        )


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()


def validate(V: TrigPoly) -> ValidationReport:
    """Check the structural conditions on the frequency set and the
    per-coordinate non-degeneracy of V.

    Non-degeneracy is a numeric proxy: for each coordinate s and each
    frozen assignment of the other coordinates, the restriction of V to
    theta_s, sampled on a 64-point grid, must have variance above 1e-12.
    """
    failures = []
    notes = []
    if not V.gamma:
        failures.append("empty frequency set")
    if all(abs(c) < 1e-300 for c in V.v):
        failures.append("all coefficients zero")
    for l in V.gamma:
        if any(c == 0 for c in l):
            failures.append(f"component zero in frequency vector {l}")
    seen = set(V.gamma)
    for l in V.gamma:
        neg = tuple(-c for c in l)
        if neg in seen:
            failures.append(f"opposite pair {l} and {neg}")
            break
    if not failures:
        rng = np.random.default_rng(12345)
        ts = np.linspace(0.0, 1.0, 64, endpoint=False)
        for s in range(V.d):
            variances = []
            for _ in range(1 if V.d == 1 else 4):
                th = np.tile(rng.random(V.d), (ts.size, 1))
                th[:, s] = ts
                variances.append(V.values(th).var())
            if min(variances) <= 1e-12:
                failures.append(f"degenerate in coordinate {s}")
        notes.append(
            "non-degeneracy checked numerically on a 64-point grid "
            "(proxy, variance tol 1e-12)")
    return ValidationReport(passed=not failures, failures=tuple(failures),
                            notes=tuple(notes))


def mu(V: TrigPoly, alpha: Sequence[float], theta: Sequence[float],
       n: Sequence[int]) -> float:
    """Diagonal potential value V(theta + n (.) alpha), componentwise product."""
    a = np.asarray(alpha, dtype=float)
    th = np.asarray(theta, dtype=float)
    nv = np.asarray(n, dtype=float)
    if not (a.shape == th.shape == nv.shape == (V.d,)):
        raise ValueError("alpha, theta, n must all have length d")
    return V(th + nv * a)


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the lattice model.

    b excited sites n_l carry amplitudes a_l; epsilon is the hopping
    strength and delta the nonlinearity strength, both small.
    """

    V: TrigPoly
    alpha: tuple[float, ...]
    theta: tuple[float, ...]
    epsilon: float
    delta: float
    p: int
    sites: tuple[IntVec, ...]
    a: tuple[float, ...]

    def __post_init__(self):
        d = self.V.d
        if len(self.alpha) != d or len(self.theta) != d:
            raise ValueError("alpha/theta must have length d")
        if not self.sites:
            raise ValueError("at least one excited site is required")
        if not all(map(math.isfinite, (*self.alpha, *self.theta, *self.a))):
            raise ValueError("alpha, theta and a must be finite")
        if any(len(n) != d for n in self.sites):
            raise ValueError("each excited site must have length d")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("excited sites must be pairwise distinct")
        if len(self.a) != len(self.sites):
            raise ValueError("one amplitude per excited site")
        if not (0.0 <= self.epsilon < 1.0 and 0.0 <= self.delta < 1.0):
            raise ValueError("epsilon, delta must lie in [0, 1)")
        if self.p < 1:
            raise ValueError("nonlinearity power p must be >= 1")
        if any(abs(al) < 1e-300 for al in self.a):
            raise ValueError("zero amplitudes degenerate the frequency map")

    @property
    def b(self) -> int:
        return len(self.sites)

    @property
    def d(self) -> int:
        return self.V.d

    def mu_n(self, n: Sequence[int]) -> float:
        return mu(self.V, self.alpha, self.theta, n)

    def mu_values(self, ns: np.ndarray) -> np.ndarray:
        """mu_n for each row of an (m, d) integer array of sites n."""
        return self.V.values(np.asarray(self.theta)
                             + np.asarray(ns, dtype=float)
                             * np.asarray(self.alpha))

    def to_record(self) -> dict:
        return {
            "V": self.V.to_record(),
            "alpha": list(self.alpha),
            "theta": list(self.theta),
            "epsilon": self.epsilon,
            "delta": self.delta,
            "p": self.p,
            "sites": [list(n) for n in self.sites],
            "a": list(self.a),
        }

    @staticmethod
    def from_record(rec: dict) -> "ModelParams":
        return ModelParams(
            V=TrigPoly.from_record(rec["V"]),
            alpha=tuple(float(x) for x in rec["alpha"]),
            theta=tuple(float(x) for x in rec["theta"]),
            epsilon=float(rec["epsilon"]),
            delta=float(rec["delta"]),
            p=_integer(rec["p"]),
            sites=tuple(tuple(map(_integer, n)) for n in rec["sites"]),
            a=tuple(float(x) for x in rec["a"]),
        )


def base_frequencies(params: ModelParams) -> np.ndarray:
    """Unperturbed frequencies: omega0_l = V(n_l alpha + theta)."""
    return np.asarray([params.mu_n(n) for n in params.sites], dtype=float)


def reference_params(epsilon: float = 1e-3, delta: float = 1e-3) -> ModelParams:
    """The b=1, d=1 single-site configuration used throughout the tests."""
    return ModelParams(
        V=TrigPoly.cosine(1),
        alpha=(0.4142135623,),
        theta=(0.17,),
        epsilon=epsilon,
        delta=delta,
        p=1,
        sites=((0,),),
        a=(1.5,),
    )
