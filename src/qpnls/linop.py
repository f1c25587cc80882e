"""Assembly and inversion of the linearized lattice operators.

An operator lives on the +/- layered sites of a region: diagonal part
built from sigma, k . omega and the potential values mu_n, a hopping
Laplacian acting in n on each layer, and an optional short-range coupling
term.  lattice_operator builds all three as one CSR matrix, by SciPy's
kernels loaded without scipy.sparse, on any indexed site set; Newton, the
residual, the time-domain right-hand side and the classification sweeps
all use it.  Green's functions are computed from one SVD each and
classified by inverse norm and off-diagonal decay.  Sigma sweeps classify
every sigma of a region from one eigendecomposition per region and layer:
the +/- layers decouple and each is real symmetric, shifted by -+ sigma.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy

from .lattice import (Indexing, Region, Site, enumerate_elementary_regions,
                      index_region, index_sites, sup_norm)
from .potential import ModelParams


@dataclass(frozen=True)
class LDEParams:
    """Classification thresholds for restricted Green's functions."""

    gamma_target: float = 0.5  # target decay rate
    norm_exp: float = 0.75  # norm budget exp(M^norm_exp)
    dist_exp: float = 8.0 / 9.0  # decay measured beyond M^dist_exp


@dataclass(frozen=True)
class AssembledOperator:
    region: Region
    indexing: Indexing
    matrix: np.ndarray

    @property
    def m(self) -> int:
        return self.indexing.m


def diagonal_values(params: ModelParams, omega: Sequence[float],
                    idx: Indexing, sigma: float = 0.0) -> np.ndarray:
    """Diagonal of the operator on the indexed sites:
    -(sigma + k . omega) + mu_n on the + layer, +(sigma + k . omega) + mu_n
    on the - layer."""
    pos, b = idx.positions, idx.b
    mu = params.mu_values(pos[:, b:])
    kw = pos[:, :b] @ np.asarray(omega, dtype=float)
    return np.where(idx.layers > 0, -sigma - kw + mu, sigma + kw + mu)


def diagonal_value(params: ModelParams, omega: Sequence[float],
                   sigma: float, site: Site) -> float:
    """Diagonal entry at one site (see diagonal_values)."""
    return float(diagonal_values(params, omega, index_sites([site]), sigma)[0])


class _SiteKeys:
    """Mixed-radix integer keys of the indexed sites.

    A site's digits are its n coordinates, its layer (0 for +, 1 for -)
    and its k coordinates, most significant first, each counted from its
    least value on the indexing.  Digit j has spare[j] unused values above
    its largest, so a shift of at most spare[j] in each digit j is a fixed
    offset of the key, and never gives the key of another indexed site.
    The sites of one (n, layer) hold keys [base, base + strides[len(n)]).
    """

    def __init__(self, idx: Indexing, spare: Sequence[int]):
        digits = np.column_stack([idx.positions[:, idx.b:], idx.layers < 0,
                                  idx.positions[:, :idx.b]])
        self.low = digits.min(axis=0)
        self.span = digits.max(axis=0) + 1 - self.low
        radix = self.span + spare
        self.strides = np.append(np.cumprod(radix[:0:-1])[::-1], 1)
        self.code = (digits - self.low) @ self.strides
        self.order = np.argsort(self.code)
        self.sorted = self.code[self.order]

    def find(self, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which target keys are keys of indexed sites, and those rows."""
        at = np.searchsorted(self.sorted, target).clip(max=self.code.size - 1)
        hit = self.sorted[at] == target
        return hit, self.order[at[hit]]


def _short_range_entries(keys: _SiteKeys, kernel: dict, scale: float
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of scale * S on the indexed sites: the
    kernel entry (dk, n, xi, xi') couples each indexed site (k, n, xi) to
    (k - dk, n, xi') when that site is indexed too.  Each entry is joined
    with the rows of its (n, xi) group only, so no dense block is built."""
    dk, n, xi, xip = (np.array(column) for column in zip(*kernel))
    d = n.shape[1]
    group = np.column_stack([n, xi < 0]) - keys.low[:d + 1]
    inside = np.all((group >= 0) & (group < keys.span[:d + 1]), axis=1)
    base = group @ keys.strides[:d + 1]
    start, stop = np.searchsorted(keys.sorted, base + [[0], [keys.strides[d]]])
    count = np.where(inside, stop - start, 0)
    entry = np.repeat(np.arange(count.size), count)
    rows = keys.order[np.arange(count.sum())
                      + np.repeat(start - np.cumsum(count) + count, count)]
    # The layer digit goes from (1 - xi) / 2 to (1 - xi') / 2.
    shift = dk @ keys.strides[d + 1:] + (xip - xi) // 2 * keys.strides[d]
    hit, cols = keys.find(keys.code[rows] - shift[entry])
    values = scale * np.array(list(kernel.values()), dtype=complex)
    return rows[hit], cols, values[entry[hit]]


@functools.cache
def _scipy_extension(name: str):
    """The SciPy extension module of this full dotted name, loaded from
    its file under scipy.__path__ by itself.

    Its package's __init__ would cost more: scipy.sparse loads SciPy's
    array-API layer, and scipy.sparse.linalg all of scipy.linalg, while the
    extension needs only numpy.  A module already imported under its name
    is reused, and one loaded here is registered under that name, so a
    later import of its package takes this module rather than initialising
    the extension again.  The package attribute stays unbound then; SciPy's
    own `from . import` reads the module from sys.modules.

    A load that maps a new OpenBLAS (SuperLU's maps SciPy's own) stops
    its thread pool at once, as its fork handler does: each new worker
    would spin idle for 2^28 clock cycles, about 0.1 s of CPU time on
    another core.  OpenBLAS restarts the pool for a call that needs it.
    """
    module = sys.modules.get(name)
    if module is None:
        *package, base = name.split(".")
        folder = os.path.join(scipy.__path__[0], *package[1:])
        paths = [os.path.join(folder, base + suffix)
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.exists(p)), None)
        if path is None:
            raise ImportError(f"no extension module {name} in {folder}",
                              name=name)
        blas = _mapped_openblas()
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        for lib in _mapped_openblas() - blas:
            getattr(ctypes.CDLL(lib), "blas_thread_shutdown_", int)()
    return module


def _mapped_openblas() -> set[str]:
    """Files of the OpenBLAS libraries mapped in this process (Linux)."""
    if not os.path.exists("/proc/self/maps"):
        return set()
    with open("/proc/self/maps") as fh:
        return {line.split()[-1] for line in fh if "openblas" in line
                and ".so" in line}


_SPARSETOOLS = "scipy.sparse._sparsetools"


@dataclass(frozen=True, eq=False)
class CSR:
    """A square complex or real matrix in SciPy's canonical CSR layout:
    sorted indices, no duplicates, int32 indices and indptr.  Each method
    runs the _sparsetools kernel csr_matrix's method of that name runs."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def m(self) -> int:
        return self.indptr.size - 1

    def _kernel(self, name: str, *out: np.ndarray) -> tuple:
        getattr(_scipy_extension(_SPARSETOOLS), name)(
            self.m, self.m, self.indptr, self.indices, self.data, *out)
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._kernel("csr_matvec", x, np.zeros(self.m, complex))[1]

    def toarray(self) -> np.ndarray:
        return self._kernel("csr_todense",
                            np.zeros((self.m, self.m), self.data.dtype))[0]

    def tocsc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(data, indices, indptr) in canonical CSC layout."""
        indptr, indices, data = self._kernel(
            "csr_tocsc", *map(np.empty_like, (self.indptr, self.indices,
                                              self.data)))
        return data, indices, indptr


def _coo_to_csr(m: int, rows: np.ndarray, cols: np.ndarray,
                vals: np.ndarray) -> CSR:
    """csr_matrix((vals, (rows, cols)), shape=(m, m)) by the kernels it
    runs, in its order, so every entry is bitwise the same."""
    if max(m, vals.size) > np.iinfo(np.int32).max:
        raise ValueError("operator too large for int32 CSR indices")
    kernels = _scipy_extension(_SPARSETOOLS)
    indptr, indices = np.empty(m + 1, np.int32), np.empty(vals.size, np.int32)
    data = np.empty_like(vals)
    kernels.coo_tocsr(m, m, vals.size, rows.astype(np.int32),
                      cols.astype(np.int32), vals, indptr, indices, data)
    if not kernels.csr_has_canonical_format(m, indptr, indices):
        if not kernels.csr_has_sorted_indices(m, indptr, indices):
            kernels.csr_sort_indices(m, indptr, indices, data)
        kernels.csr_sum_duplicates(m, m, indptr, indices, data)
        indices, data = indices[:indptr[-1]], data[:indptr[-1]]
    return CSR(data, indices, indptr)


def lattice_operator(params: ModelParams, omega: Sequence[float],
                     idx: Indexing, sigma: float = 0.0,
                     S: Optional[dict] = None) -> CSR:
    """D + epsilon * (hopping in n, per layer) + delta * S on the indexed
    sites, as a complex CSR matrix.  S is a short-range kernel, Toplitz in
    k and diagonal in n: {(dk, n, xi, xi'): value} couples each indexed
    site (k, n, xi) to (k - dk, n, xi').  Hopping and S reach only sites
    inside the indexing (zero Dirichlet condition outside)."""
    m, d = idx.m, params.d
    kernel = S if S is not None and params.delta != 0.0 else {}
    reach = max((sup_norm(key[0]) for key in kernel), default=0)
    keys = _SiteKeys(idx, [1] * (d + 1) + [reach] * idx.b)
    terms = [(np.arange(m), np.arange(m),
              diagonal_values(params, omega, idx, sigma))]
    if params.epsilon != 0.0:
        # Pairs (i, j) with site j = site i + e_s in one n coordinate s.
        hit, j = keys.find((keys.code[:, None] + keys.strides[:d]).ravel())
        i = np.flatnonzero(hit) // d
        hop = np.full(i.size, params.epsilon)
        terms += [(i, j, hop), (j, i, hop)]
    if kernel:
        terms.append(_short_range_entries(keys, kernel, params.delta))
    rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
    return _coo_to_csr(m, rows, cols, vals.astype(complex))


def box_operator(params: ModelParams, omega: Sequence[float],
                 radii: Sequence[int]) -> CSR:
    """D + epsilon * hopping on the + layer of the box centered at the
    origin with the given radii, sites in C order, with sigma = 0 and
    b = len(omega) k axes (none for the time-domain operator)."""
    pts = Region.box([-r for r in radii], radii).points()
    plus = np.ones(pts.shape[0], dtype=np.int64)
    return lattice_operator(params, omega, Indexing(pts, plus, len(omega)))


def assemble_H(params: ModelParams, omega: Sequence[float], region: Region,
               sigma: float, S: Optional[dict] = None,
               exclude: Iterable[Site] = ()) -> AssembledOperator:
    """Full operator: diagonal + epsilon * (hopping in n, per layer)
    + delta * S, restricted to the region minus exclusions."""
    idx = index_region(region, params.b, exclude)
    H = lattice_operator(params, omega, idx, sigma, S).toarray()
    return AssembledOperator(region, idx, H)


# -- Green's functions -------------------------------------------------


class SingularOperatorError(RuntimeError):
    def __init__(self, message: str, smallest_singular_value: float):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value


@dataclass(frozen=True)
class GreenReport:
    norm: float
    decay_rate_fit: float
    decay_fit_residual: float
    good: bool
    M: int
    norm_budget: float
    gamma_target: float
    far_pair_count: int


def operator_norm(G: np.ndarray) -> float:
    """Largest singular value (exact spectral norm)."""
    return float(np.linalg.norm(G, 2))


# An inverse is trusted when the operator's condition number is finite and
# at most _COND_MAX and ||H G - I||_F <= _RESIDUAL_RTOL max(1, ||G||_F).
_COND_MAX = 1e14
_RESIDUAL_RTOL = 1e-10


def _scale(region: Region, lde: LDEParams) -> tuple[int, float, float]:
    """A region's scale M (its diameter), norm budget exp(M^norm_exp) and
    target decay rate."""
    M = max(region.diameter(), 1)
    return M, math.exp(M ** lde.norm_exp), lde.gamma_target


def _far_pairs(positions: np.ndarray, cutoff: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and sup distances of the pairs of sites at distance
    at least cutoff, in row-major order."""
    dist = np.abs(positions[:, None, :] - positions[None, :, :]).max(axis=2)
    mask = dist >= cutoff
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    return rows, cols, dist[rows, cols].astype(float)


def _classify(cond, residual, g_fro, norm, g_far, norm_budget: float,
              envelope: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Verdicts of inverses, elementwise over any leading sigma axes.

    Returns (inverted, good): inverted when the inverse is trusted (see
    _COND_MAX), good when it is also within the norm budget and every far
    entry |G_ij| (g_far, last axis) is at most its envelope
    exp(-gamma_target d_ij).  Non-finite inputs count as failures.
    """
    with np.errstate(invalid="ignore"):
        inverted = (np.isfinite(cond) & (cond <= _COND_MAX)
                    & (residual <= _RESIDUAL_RTOL * np.maximum(1.0, g_fro)))
        good = (inverted & (norm <= norm_budget)
                & np.all(g_far <= envelope, axis=-1))
    return inverted, good


def green(op: AssembledOperator,
          lde: LDEParams = LDEParams()) -> tuple[np.ndarray, GreenReport]:
    """Inverse of the assembled operator with a decay/norm report.

    The region diameter plays the role of the scale M: the report is good
    when the inverse norm stays below exp(M^{3/4}) and every pair beyond
    distance M^{8/9} decays at the target rate.  One SVD H = U S V* gives
    the condition number, G = V S^{-1} U* and the exact norm 1/s_min.
    """
    H = op.matrix
    U, s, Vh = np.linalg.svd(H)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cond = s[0] / s[-1]
        norm = 1.0 / s[-1]
        G = (Vh.conj().T / s) @ U.conj().T
        residual = np.linalg.norm(H @ G - np.eye(H.shape[0]))
    M, norm_budget, gamma_target = _scale(op.region, lde)
    rows, cols, d_far = _far_pairs(op.indexing.positions, M ** lde.dist_exp)
    g_far = np.abs(G[rows, cols])
    inverted, good = _classify(cond, residual, np.linalg.norm(G), norm, g_far,
                               norm_budget, np.exp(-gamma_target * d_far))
    if not inverted:
        raise SingularOperatorError(
            f"operator numerically singular (cond {cond:.3e}, "
            f"inverse residual {residual:.3e})", float(s[-1]))

    if d_far.size:
        logs = np.log(np.maximum(g_far, 1e-300))
        A = np.vstack([d_far, np.ones_like(d_far)]).T
        sol, res, *_ = np.linalg.lstsq(A, logs, rcond=None)
        rate_fit = float(-sol[0])
        fit_residual = float(np.sqrt(res[0] / d_far.size)) if res.size else 0.0
    else:
        rate_fit = math.inf
        fit_residual = 0.0

    report = GreenReport(
        norm=float(norm), decay_rate_fit=rate_fit,
        decay_fit_residual=fit_residual, good=bool(good), M=M,
        norm_budget=norm_budget, gamma_target=gamma_target,
        far_pair_count=int(d_far.size))
    return G, report


def schur_green(op: AssembledOperator,
                resonant_sites: Iterable[Site]) -> np.ndarray:
    """Inverse reconstructed through the Schur complement of the resonant
    block.  Equals the direct inverse wherever both are defined."""
    idx = op.indexing
    B = sorted({idx[s] for s in resonant_sites})
    C = [i for i in range(idx.m) if i not in set(B)]
    H = op.matrix
    if not B or not C:
        G, _ = green(op)
        return G
    HBB = H[np.ix_(B, B)]
    HBC = H[np.ix_(B, C)]
    HCB = H[np.ix_(C, B)]
    HCC = H[np.ix_(C, C)]
    cond = np.linalg.cond(HCC)
    if not np.isfinite(cond) or cond > _COND_MAX:
        raise SingularOperatorError(
            "complement block numerically singular", 0.0)
    GCC = np.linalg.inv(HCC)
    Schur = HBB - HBC @ GCC @ HCB
    cond_s = np.linalg.cond(Schur)
    if not np.isfinite(cond_s) or cond_s > _COND_MAX:
        raise SingularOperatorError(
            "resonant Schur block numerically singular", 0.0)
    SB = np.linalg.inv(Schur)
    G = np.empty_like(H)
    G[np.ix_(B, B)] = SB
    G[np.ix_(B, C)] = -SB @ HBC @ GCC
    G[np.ix_(C, B)] = -GCC @ HCB @ SB
    G[np.ix_(C, C)] = GCC + GCC @ HCB @ SB @ HBC @ GCC
    return G


# -- sigma sweeps ------------------------------------------------------


@dataclass(frozen=True)
class SweepStats:
    sigmas: np.ndarray
    good: np.ndarray  # bool per sigma
    bad_fraction: float
    bad_intervals: tuple[tuple[float, float], ...]
    worst_region: tuple  # per sigma: index of the failing region or -1


def lde_region_family(params: ModelParams, M: int,
                      n_range: int) -> list[tuple[Region, str]]:
    """Regions used for classification sweeps: elementary regions of size
    M translated to (0, n) for |n| up to n_range."""
    b, d = params.b, params.d
    shapes = enumerate_elementary_regions(b + d, M)
    out = []
    for n0 in itertools.product(range(-n_range, n_range + 1), repeat=d):
        shift = (0,) * b + n0
        for si, shape in enumerate(shapes):
            out.append((shape.translate(shift), f"n={n0} shape={si}"))
    return out


def sigma_sweep(params: ModelParams, omega: Sequence[float],
                regions: Sequence[tuple[Region, str]],
                sigma_grid: Sequence[float],
                lde: LDEParams = LDEParams(),
                exclude: Iterable[Site] = ()) -> SweepStats:
    """Classify every sigma as good or bad over a family of regions.

    A sigma is bad when any region in the family fails its Green's
    function classification (or is singular), with the thresholds of
    green.  Returns the bad fraction, maximal bad intervals of the grid,
    and the first failing region per sigma.  Each region is assembled
    once and classified for all sigma still good from one
    eigendecomposition per layer (see _sweep_region).
    """
    sigmas = np.asarray(sigma_grid, dtype=float)
    worst = np.full(sigmas.size, -1)
    for ri, (region, _) in enumerate(regions):
        live = np.flatnonzero(worst < 0)
        if live.size == 0:
            break
        op = assemble_H(params, omega, region, 0.0, exclude=exclude)
        worst[live[~_sweep_region(op, sigmas[live], lde)]] = ri
    good = worst < 0
    bad_fraction = float((~good).mean()) if sigmas.size else 0.0
    # Maximal runs [a, b) of bad sigmas, from the steps of the bad mask.
    edges = np.flatnonzero(np.diff(np.concatenate(([0], ~good, [0]))))
    intervals = tuple((float(sigmas[a]), float(sigmas[b - 1]))
                      for a, b in zip(edges[::2], edges[1::2]))
    return SweepStats(sigmas, good, bad_fraction, intervals,
                      tuple(int(w) for w in worst))


# Sigmas per batch in _sweep_region: at most this many entries per stack
# of layer inverses.
_BATCH_ENTRIES = 1 << 21


def _sweep_region(op: AssembledOperator, sigmas: np.ndarray,
                  lde: LDEParams) -> np.ndarray:
    """green's good/bad verdict for op at sigma = 0 shifted to each sigma.

    Without a short-range term the + and - layers decouple and each layer
    block is real symmetric, H(sigma) = H0 -+ sigma I on the +/- layer.
    One eigh H0 = Q diag(lam) Q^T per layer then gives, for every sigma,
    the exact eigenvalues lam -+ sigma (hence the condition number and
    ||G|| = 1 / min |lam -+ sigma|) and G = Q diag(1/(lam -+ sigma)) Q^T,
    from which the inverse residual and the far-pair decay are checked
    as in green.  Far pairs across layers are left out: G is exactly zero
    there, and so within every envelope.
    """
    H0 = op.matrix
    xi = op.indexing.layers
    plus, minus = np.flatnonzero(xi > 0), np.flatnonzero(xi < 0)
    if np.any(H0.imag != 0.0) or np.any(H0[np.ix_(plus, minus)] != 0.0):
        raise ValueError("sweep needs real, decoupled +/- layers")
    M, norm_budget, gamma_target = _scale(op.region, lde)
    positions = op.indexing.positions
    layers = []  # (sign, lam, Q, block, far rows, far cols)
    envelopes = []
    for sign, layer in ((1.0, plus), (-1.0, minus)):
        if layer.size == 0:
            continue
        block = H0.real[np.ix_(layer, layer)]
        lam, Q = np.linalg.eigh(block)
        rows, cols, d_far = _far_pairs(positions[layer], M ** lde.dist_exp)
        layers.append((sign, lam, Q, block, rows, cols))
        envelopes.append(np.exp(-gamma_target * d_far))
    envelope = np.concatenate(envelopes)
    step = max(1, _BATCH_ENTRIES // max(lay[1].size for lay in layers) ** 2)
    good = np.empty(sigmas.size, dtype=bool)
    for start in range(0, sigmas.size, step):
        sig = sigmas[start:start + step]
        spec, res2, fro2, g_far = [], 0.0, 0.0, []
        for sign, lam, Q, block, rows, cols in layers:
            shift = sign * sig[:, None]
            mu = lam[None, :] - shift  # eigenvalues of the layer of H(sigma)
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                G = (Q[None, :, :] / mu[:, None, :]) @ Q.T
                R = block @ G - shift[:, :, None] * G - np.eye(lam.size)
                res2 = res2 + np.sum(R * R, axis=(1, 2))
                fro2 = fro2 + np.sum(G * G, axis=(1, 2))
            spec.append(np.abs(mu))
            g_far.append(np.abs(G[:, rows, cols]))
        spec = np.concatenate(spec, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = spec.max(axis=1) / spec.min(axis=1)
            norm = 1.0 / spec.min(axis=1)
        _, good[start:start + step] = _classify(
            cond, np.sqrt(res2), np.sqrt(fro2), norm,
            np.concatenate(g_far, axis=1), norm_budget, envelope)
    return good


# -- perturbation stability --------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    hypothesis_value: float
    hypothesis_met: bool
    norm_ok: Optional[bool]
    entry_ok: Optional[bool]
    norm_observed: Optional[float]
    max_entry_excess: Optional[float]


def _lattice_decay_sum(r: int, c: float) -> float:
    """Sum of exp(-c |x|) over Z^r in the sup norm, in closed form.

    With q = exp(-c), summing the shells (2m+1)^r - (2m-1)^r by parts
    gives (1 - q) sum_{m>=0} (2m+1)^r q^m.  That series is (2q d/dq + 1)^r
    applied to 1/(1 - q), which is P(q)/(1 - q)^(r+1) with P a polynomial
    of positive integer coefficients; so the sum is P(q)/(1 - q)^r.
    """
    P = [1]  # coefficients of P, lowest degree first; 1/(1-q) to start
    for e in range(1, r + 1):
        # P/(1-q)^e -> [(2qP' + P)(1 - q) + 2e q P] / (1-q)^(e+1)
        P = [(2 * j + 1) * pj + (2 * e - 2 * j + 1) * before
             for j, (pj, before) in enumerate(zip(P + [0], [0] + P))]
    q = math.exp(-c)
    return sum(pj * q ** j for j, pj in enumerate(P)) / (-math.expm1(-c)) ** r


def perturbation_stability(A: np.ndarray, B: np.ndarray,
                           positions: np.ndarray, eps1: float,
                           c: float) -> StabilityReport:
    """Neumann-series stability of the inverse under a decaying
    perturbation.

    eps1 is the certified inverse bound of A (||A^{-1}|| <= 1/eps1); the
    perturbation size eps2 is measured from B against the decay profile
    exp(-c |x - x'|).  When the smallness product, whose polynomial factor
    (1 + diam)^C2 has C2 = 1, is at most 1/2, the perturbed inverse must
    satisfy ||(A+B)^{-1}|| <= 2/eps1 and the entrywise difference bound
    eps1^{-1} exp(-c |x - x'|).
    """
    m = A.shape[0]
    Ainv = np.linalg.inv(A)
    if operator_norm(Ainv) > 1.0 / eps1 * (1 + 1e-10):
        raise ValueError("certified inverse bound on A does not hold")
    dist = np.abs(positions[:, None, :] - positions[None, :, :]).max(axis=2)
    diam = float(dist.max())
    eps2 = float(np.max(np.abs(B) * np.exp(c * dist)))
    r = positions.shape[1]
    hyp = (m ** 2 * math.exp(2 * c * diam) * (1 + diam)
           * eps2 / eps1 * _lattice_decay_sum(r, c))
    if hyp > 0.5:
        return StabilityReport(hyp, False, None, None, None, None)
    G2 = np.linalg.inv(A + B)
    norm2 = operator_norm(G2)
    diff = np.abs(G2 - Ainv)
    bound = np.exp(-c * dist) / eps1
    excess = float(np.max(diff - bound))
    return StabilityReport(hyp, True, bool(norm2 <= 2.0 / eps1 + 1e-12),
                           bool(excess <= 1e-12), float(norm2), excess)
