import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import sparse

from qpnls import linop, solver
from qpnls.lattice import Region, frozen_mode_sites, index_region
from qpnls.linop import (LDEParams, SingularOperatorError, assemble_H,
                         box_operator, diagonal_value, diagonal_values, green,
                         lattice_operator, lde_region_family, operator_norm,
                         perturbation_stability, schur_green, sigma_sweep)
from qpnls.linop import _lattice_decay_sum, _sweep_region
from qpnls.potential import ModelParams, TrigPoly, base_frequencies, \
    reference_params


def make_operator(sigma=0.3, N=2, params=None):
    p = params if params is not None else reference_params()
    om = base_frequencies(p)
    return p, assemble_H(p, om, Region.cube(p.b + p.d, N), sigma)


class TestAssembleD:
    def test_zero_at_resonance(self):
        p = ModelParams(V=TrigPoly.cosine(1), alpha=(0.3,), theta=(0.25,),
                        epsilon=0.0, delta=0.0, p=1, sites=((0,),), a=(1.0,))
        # mu_0 = cos(pi/2) = 0, so both layers vanish at k = 0, sigma = 0
        assert diagonal_value(p, (0.7,), 0.0, ((0,), (0,), +1)) == \
            pytest.approx(0.0, abs=1e-15)
        assert diagonal_value(p, (0.7,), 0.0, ((0,), (0,), -1)) == \
            pytest.approx(0.0, abs=1e-15)

    def test_layer_sign_identity(self):
        p = reference_params()
        om = base_frequencies(p)
        rng = np.random.default_rng(4)
        for _ in range(30):
            k = (int(rng.integers(-5, 6)),)
            n = (int(rng.integers(-5, 6)),)
            sigma = float(rng.standard_normal())
            plus = diagonal_value(p, om, sigma, (k, n, +1))
            minus = diagonal_value(p, om, sigma, (k, n, -1))
            assert minus == pytest.approx(-plus + 2 * p.mu_n(n))

    def test_per_entry_oracle(self):
        p = reference_params(0.0, 0.0)
        om = base_frequencies(p)
        op = assemble_H(p, om, Region.cube(2, 1), 0.4)
        for i, (k, n, xi) in enumerate(op.indexing.sites):
            want = (-0.4 - k[0] * om[0] + p.mu_n(n)) if xi > 0 \
                else (0.4 + k[0] * om[0] + p.mu_n(n))
            assert op.matrix[i, i] == pytest.approx(want)
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.abs(off).max() == 0.0


class TestAssembleH:
    def test_diagonal_when_couplings_off(self):
        p = reference_params(0.0, 0.0)
        _, op = make_operator(params=p, sigma=0.37)
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.abs(off).max() == 0.0
        G, _ = green(op)
        assert np.allclose(np.diag(G), 1.0 / np.diag(op.matrix))

    def test_tridiagonal_chain_oracle(self):
        p = reference_params()
        om = base_frequencies(p)
        # fix k = 0: each layer becomes a tridiagonal chain in n
        reg = Region((0, -3), (0, 3))
        op = assemble_H(p, om, reg, 0.2)
        sites = op.indexing.sites
        hand = np.zeros((op.m, op.m), dtype=complex)
        for i, (k, n, xi) in enumerate(sites):
            hand[i, i] = diagonal_value(p, om, 0.2, (k, n, xi))
            for j, (kp, np_, xip) in enumerate(sites):
                if xip == xi and kp == k and abs(np_[0] - n[0]) == 1:
                    hand[i, j] = p.epsilon
        assert np.allclose(op.matrix, hand)

    def test_hermitian(self):
        _, op = make_operator()
        H = op.matrix
        assert np.linalg.norm(H - H.conj().T) <= 1e-12 * np.linalg.norm(H)

    def test_toplitz_shift_in_k(self):
        p = reference_params()
        om = base_frequencies(p)
        base = Region.cube(2, 2)
        shifted = base.translate((1, 0))
        sigma = 0.23
        op1 = assemble_H(p, om, base, sigma)
        # shifting the region by one k step equals shifting sigma by omega
        op2 = assemble_H(p, om, shifted, sigma - om[0])
        assert np.allclose(op1.matrix, op2.matrix)

    def test_short_range_term(self):
        p = reference_params()
        S = {
            ((0,), (0,), 1, 1): 0.5,
            ((1,), (0,), 1, 1): 0.25,
            ((-1,), (0,), 1, 1): 0.25,
        }
        om = base_frequencies(p)
        idx = index_region(Region.cube(2, 1), p.b)
        D = (lattice_operator(p, om, idx, 0.0, S).toarray()
             - lattice_operator(p, om, idx).toarray())
        i = idx[((0,), (0,), 1)]
        j = idx[((1,), (0,), 1)]
        assert D[i, i] == pytest.approx(p.delta * 0.5)
        assert D[i, j] == pytest.approx(p.delta * 0.25)

    def test_b2_coupling_per_entry_oracle(self):
        from qpnls.solver import FourierState, linearization_coupling
        p = ModelParams(V=TrigPoly.cosine(1), alpha=(0.4142135623,),
                        theta=(0.17,), epsilon=1e-3, delta=1e-3, p=1,
                        sites=((0,), (2,)), a=(1.5, 1.2))
        om = base_frequencies(p)
        rng = np.random.default_rng(23)
        coeffs = {}
        for _ in range(12):
            k = tuple(int(c) for c in rng.integers(-2, 3, 2))
            n = (int(rng.integers(-2, 3)),)
            coeffs[(k, n, 1)] = float(rng.standard_normal()) * 0.1
        state = FourierState.from_coeffs(coeffs, 2, 1, {})
        region = Region.cube(3, 2)
        S = linearization_coupling(state, p, {y[2:] for y in region.sites()},
                                   dk_radius=3)
        assert S
        excl = frozen_mode_sites(p.sites)
        sigma = 0.13
        idx = index_region(region, p.b, excl)
        H = lattice_operator(p, om, idx, sigma, S)
        assert H.data.dtype == np.float64
        sites = idx.sites
        hand = np.zeros((idx.m, idx.m))
        for i, (k, n, xi) in enumerate(sites):
            kw = k[0] * om[0] + k[1] * om[1]
            hand[i, i] = xi * (-sigma - kw) + p.mu_n(n)
            for j, (kp, np_, xip) in enumerate(sites):
                if kp == k and xip == xi and abs(np_[0] - n[0]) == 1:
                    hand[i, j] += p.epsilon
                if np_ == n:
                    dk = (k[0] - kp[0], k[1] - kp[1])
                    hand[i, j] += p.delta * S.get((dk, n, xi, xip), 0)
        assert np.abs(H.toarray() - hand).max() <= 1e-14
        # The sparse builder stores the nonzeros only, no dense S block.
        assert H.data.size == np.count_nonzero(hand)


def newton_operator(params, N):
    """The float64 matrix newton_step factors on the cube of size N, at
    the initial state and its solved frequencies."""
    from qpnls.solver import _newton_matrix, initial_state, solve_Q
    state = initial_state(params)
    return _newton_matrix(state, solve_Q(state, params), params, N)[1]


def assert_same_csr(ours, theirs):
    for name in ("data", "indices", "indptr"):
        want = getattr(theirs, name)
        got = getattr(ours, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


class TestCSRKernels:
    """The CSR holder runs SciPy's kernels in SciPy's order, so it must
    equal scipy.sparse bitwise."""

    @pytest.mark.parametrize("kind", ["duplicates", "canonical",
                                      "empty-rows"])
    def test_builder_equals_csr_matrix(self, kind):
        rng = np.random.default_rng(53)
        m = 7
        if kind == "duplicates":  # repeated entries, columns unsorted
            rows = rng.integers(0, m, 40)
            cols = rng.integers(0, m, 40)
        elif kind == "canonical":  # row-major, one entry per position
            rows, cols = np.nonzero(rng.random((m, m)) < 0.4)
        else:  # rows 0, 3 and 6 hold nothing; no duplicates, unsorted
            rows, cols = np.divmod(rng.permutation(4 * m)[:12], m)
            rows = np.array([1, 2, 4, 5])[rows]
        vals = rng.standard_normal(rows.size) + 1j * rng.standard_normal(
            rows.size)
        want = sparse.csr_matrix((vals, (rows, cols)), shape=(m, m))
        # Only the first kind has duplicates to sum.
        assert (want.nnz < rows.size) == (kind == "duplicates")
        assert_same_csr(linop._coo_to_csr(m, rows, cols, vals), want)

    @pytest.mark.parametrize("params, N", [
        (reference_params(), 4),
        (ModelParams(V=TrigPoly.cosine(1), alpha=(0.4142135623,),
                     theta=(0.17,), epsilon=1e-3, delta=1e-3, p=1,
                     sites=((0,), (2,)), a=(1.5, 1.2)), 5),
        (ModelParams(V=TrigPoly(d=2, K=1, gamma=((1, 1),), v=(1.0,)),
                     alpha=(0.4142135623, 0.7320508076), theta=(0.17, 0.05),
                     epsilon=1e-3, delta=1e-3, p=1, sites=((0, 0),),
                     a=(1.5,)), 2),
    ], ids=["reference-N4", "b2-N5", "d2-N2"])
    def test_newton_operator_equals_scipy(self, params, N, monkeypatch):
        # Newton builds the layered operator's CSR in linop and then, in
        # solver, the CSR of its folded block A + B, both float64; the
        # frequency solve before them builds the residual's.
        built = []
        coo_to_csr = linop._coo_to_csr

        def recorded(*args):
            built.append((args, coo_to_csr(*args)))
            return built[-1][1]

        monkeypatch.setattr(linop, "_coo_to_csr", recorded)
        monkeypatch.setattr(solver, "_coo_to_csr", recorded)
        H = newton_operator(params, N)
        assert [args[3].dtype for args, _ in built[-2:]] \
            == [np.float64, np.float64]
        for (m, rows, cols, vals), got in built:
            want = sparse.csr_matrix((vals, (rows, cols)), shape=(m, m))
            assert_same_csr(got, want)
        assert H is got
        data, indices, indptr = H.tocsc()
        assert_same_csr(sparse.csc_matrix((data, indices, indptr),
                                          shape=(m, m)), want.tocsc())
        assert np.array_equal(H.toarray(), want.toarray())
        x = [1, 1j] @ np.random.default_rng(59).standard_normal((2, m))
        assert np.array_equal(H @ x, want @ x)


B2_PARAMS = ModelParams(V=TrigPoly.cosine(1), alpha=(0.4142135623,),
                        theta=(0.17,), epsilon=1e-3, delta=1e-3, p=1,
                        sites=((0,), (2,)), a=(1.5, 1.2))
D2_PARAMS = ModelParams(V=TrigPoly(d=2, K=1, gamma=((1, 1),), v=(1.0,)),
                        alpha=(0.4142135623, 0.7320508076),
                        theta=(0.17, 0.05), epsilon=1e-3, delta=1e-3, p=1,
                        sites=((0, 0),), a=(1.5,))


class TestBoxOperator:
    """box_operator is the one plus-layer operator of the residual and of
    the time-domain right-hand side."""

    @pytest.mark.parametrize("params, radii", [
        (reference_params(), (3, 2)),
        (B2_PARAMS, (1, 2, 3)),
        (D2_PARAMS, (2, 1, 2)),
    ], ids=["reference", "b2", "d2"])
    def test_plus_block_of_layered_operator(self, params, radii):
        # The same entries in the same column order as the plus rows of
        # the layered operator on the box, which reach no minus column, so
        # its product is bitwise theirs.
        om = base_frequencies(params) + 1e-3
        idx = index_region(Region.box([-r for r in radii], radii), params.b)
        layered = lattice_operator(params, om, idx)
        plus = idx.layers > 0
        got = box_operator(params, om, radii)
        dense = layered.toarray()
        assert np.array_equal(got.toarray(), dense[np.ix_(plus, plus)])
        assert not dense[np.ix_(plus, ~plus)].any()
        rng = np.random.default_rng(61)
        x = rng.standard_normal(idx.m) + 1j * rng.standard_normal(idx.m)
        assert np.array_equal(got @ x[plus], (layered @ x)[plus])

    def test_time_domain_operator(self):
        # With no k axes: mu_n + epsilon * hopping on the n box.
        p = reference_params()
        R = 3
        n = np.arange(-R, R + 1)
        want = (np.diag(p.mu_values(n[:, None]))
                + p.epsilon * (np.eye(2 * R + 1, k=1)
                               + np.eye(2 * R + 1, k=-1)))
        assert np.array_equal(box_operator(p, (), (R,)).toarray(), want)


def test_missing_extension_raises_import_error():
    name = "scipy.sparse._no_such_extension"
    with pytest.raises(ImportError, match=rf"{name} in \S+sparse$"):
        linop._scipy_extension(name)
    assert name not in sys.modules


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in Linux's /proc")
def test_superlu_load_leaves_no_new_blas_threads():
    # Loading SuperLU maps SciPy's OpenBLAS, whose new thread pool would
    # spin idle for about 0.1 s of CPU time.  The loader stops the pool,
    # so no thread is left behind, and a threaded BLAS product run after
    # it (OpenBLAS restarts the pool) is still right.
    code = "\n".join([
        "import os, numpy as np",
        "from qpnls import linop, solver",
        "before = set(os.listdir('/proc/self/task'))",
        "linop._scipy_extension(solver._SUPERLU)",
        "after = set(os.listdir('/proc/self/task'))",
        "from scipy.linalg import blas",
        "a = np.random.default_rng(0).standard_normal((300, 300))",
        "print(after - before, np.allclose(blas.dgemm(1.0, a, a), a @ a))"])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "set() True"


class TestGreen:
    def test_one_by_one(self):
        p = reference_params(0.0, 0.0)
        om = base_frequencies(p)
        op = assemble_H(p, om, Region.cube(2, 0), 0.9)
        G, rep = green(op)
        z = np.diag(op.matrix)
        assert np.allclose(G, np.diag(1.0 / z))
        assert rep.norm == pytest.approx(float(np.max(1.0 / np.abs(z))),
                                         rel=1e-8)

    def test_residual_identity(self):
        _, op = make_operator(sigma=0.41, N=3)
        G, _ = green(op)
        assert np.linalg.norm(op.matrix @ G - np.eye(op.m)) <= 1e-9

    def test_exact_kernel_raises(self):
        p = reference_params(0.0, 0.0)
        om = base_frequencies(p)
        # sigma placed exactly at -k.omega + mu_n for an interior site
        site = ((1,), (1,), +1)
        sigma = -om[0] + p.mu_n((1,))
        op = assemble_H(p, om, Region.cube(2, 2), sigma)
        with pytest.raises(SingularOperatorError):
            green(op)

    def test_diag_dominant_good(self):
        p = reference_params()
        om = base_frequencies(p)
        reg = Region.cube(2, 2)
        sigma = 4.0  # far from every resonance
        diag = diagonal_values(p, om, index_region(reg, p.b), sigma)
        gap = float(np.abs(diag).min())
        assert gap > 1.0
        op = assemble_H(p, om, reg, sigma)
        _, rep = green(op)
        assert rep.good
        # Neumann bound: norm <= 1 / (gap - coupling)
        assert rep.norm <= 1.0 / (gap - 2 * p.epsilon - p.delta)

    def test_operator_norm_matches_svd(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        assert operator_norm(A) == pytest.approx(
            float(np.linalg.svd(A, compute_uv=False)[0]), rel=1e-8)


class TestSchur:
    def _random_op(self, seed, m_region=2):
        p = reference_params()
        om = base_frequencies(p)
        op = assemble_H(p, om, Region.cube(2, m_region), 0.8)
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((op.m, op.m)) \
            + 1j * rng.standard_normal((op.m, op.m))
        noise = 0.01 * (noise + noise.conj().T)
        object.__setattr__(op, "matrix", op.matrix + noise)
        return op

    def test_empty_resonant_set(self):
        _, op = make_operator(sigma=0.8)
        G, _ = green(op)
        assert np.allclose(schur_green(op, []), G)

    def test_full_resonant_set(self):
        _, op = make_operator(sigma=0.8)
        G, _ = green(op)
        assert np.allclose(schur_green(op, list(op.indexing.sites)), G)

    def test_random_split_matches_direct(self):
        for seed in range(5):
            op = self._random_op(seed)
            G, _ = green(op)
            diag = np.abs(np.diag(op.matrix))
            order = np.argsort(diag)
            B = [op.indexing.sites[i] for i in order[:3]]
            Gs = schur_green(op, B)
            assert np.max(np.abs(Gs - G)) <= 1e-9


class TestSweep:
    def test_couplings_off_bad_set_is_resonance_intervals(self):
        p = reference_params(0.0, 0.0)
        om = base_frequencies(p)
        fam = [(Region.cube(2, 1), "cube")]
        grid = np.linspace(-2, 2, 161)
        stats = sigma_sweep(p, om, fam, grid)
        # with couplings off, bad sigma are exactly near-singular diagonals
        idx = index_region(Region.cube(2, 1), 1)
        for s, g in zip(stats.sigmas, stats.good):
            gap = min(abs(diagonal_value(p, om, float(s), site))
                      for site in idx.sites)
            if gap > 0.2:
                assert g

    def test_empty_family(self):
        p = reference_params()
        stats = sigma_sweep(p, base_frequencies(p), [], [0.1, 0.2])
        assert stats.bad_fraction == 0.0

    def test_decoupling_checked(self):
        p, op = make_operator(sigma=0.0)
        plus = op.indexing[((0,), (0,), 1)]
        minus = op.indexing[((0,), (1,), -1)]
        object.__setattr__(op, "matrix", op.matrix.copy())
        op.matrix[plus, minus] = op.matrix[minus, plus] = 1e-3
        with pytest.raises(ValueError):
            _sweep_region(op, np.array([0.3]), LDEParams())

    def test_family_construction(self):
        p = reference_params()
        fam = lde_region_family(p, 1, n_range=2)
        assert len(fam) == 25  # 5 shapes at M = 1 in r = 2, n in +-2
        fam2 = lde_region_family(p, 2, n_range=1)
        assert all(reg.size() > 0 for reg, _ in fam2)


def reference_sweep(p, om, family, grid, lde, exclude):
    """sigma_sweep's labels from assemble_H + green at every sigma, with the
    number of singular operators met."""
    worst, singular = [], 0
    for sigma in grid:
        first = -1
        for ri, (reg, _) in enumerate(family):
            try:
                ok = green(assemble_H(p, om, reg, float(sigma),
                                      exclude=exclude), lde)[1].good
            except SingularOperatorError:
                ok, singular = False, singular + 1
            if not ok:
                first = ri
                break
        worst.append(first)
    good = np.array(worst) < 0
    intervals, start = [], None
    for i, g in enumerate(good):
        if not g and start is None:
            start = float(grid[i])
        if g and start is not None:
            intervals.append((start, float(grid[i - 1])))
            start = None
    if start is not None:
        intervals.append((start, float(grid[-1])))
    return good, tuple(worst), float((~good).mean()), tuple(intervals), \
        singular


class TestSweepOracle:
    """The spectral sweep against green at every sigma."""

    LDE = LDEParams(gamma_target=0.5)  # the ldt stage's defaults

    def check(self, p, family, grid, lde, exclude=()):
        om = base_frequencies(p)
        stats = sigma_sweep(p, om, family, grid, lde=lde, exclude=exclude)
        good, worst, frac, intervals, singular = reference_sweep(
            p, om, family, grid, lde, exclude)
        assert np.array_equal(stats.good, good)
        assert stats.worst_region == worst
        assert stats.bad_fraction == frac
        assert stats.bad_intervals == intervals
        return stats, singular

    def test_default_ldt_config(self):
        p = reference_params()
        stats, _ = self.check(p, lde_region_family(p, 2, n_range=2),
                              np.linspace(-2.0, 2.0, 41), self.LDE,
                              frozen_mode_sites(p.sites))
        assert 0.0 < stats.bad_fraction < 1.0

    def test_determinism_ldt_config(self):
        p = reference_params()
        self.check(p, lde_region_family(p, 1, n_range=1),
                   np.linspace(-1.0, 1.0, 11), self.LDE,
                   frozen_mode_sites(p.sites))

    def test_exact_resonance_couplings_off(self):
        p = reference_params(0.0, 0.0)
        om = base_frequencies(p)
        # the diagonal at ((1,), (1,), +1) vanishes exactly at this sigma
        resonance = -om[0] + p.mu_n((1,))
        grid = np.sort(np.append(np.linspace(-2.0, 2.0, 41), resonance))
        stats, singular = self.check(p, [(Region.cube(2, 1), "cube")], grid,
                                     LDEParams())
        assert singular >= 1
        assert not stats.good[np.flatnonzero(grid == resonance)[0]]


class TestLatticeDecaySum:
    @pytest.mark.parametrize("c", [0.05, 0.1, 1.0])
    def test_one_dimension_closed_form(self, c):
        q = math.exp(-c)
        assert _lattice_decay_sum(1, c) == pytest.approx((1 + q) / (1 - q),
                                                         rel=1e-13)

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("c", [0.05, 0.1, 1.0])
    def test_matches_high_precision_sum(self, r, c):
        # The origin plus the sup-norm shells |x| = m, (2m+1)^r - (2m-1)^r
        # points each, at 50 digits.
        with mpmath.workdps(50):
            q = mpmath.exp(-c)
            ref = 1 + mpmath.nsum(
                lambda m: ((2 * m + 1) ** r - (2 * m - 1) ** r) * q ** m,
                [1, mpmath.inf])
        assert _lattice_decay_sum(r, c) == pytest.approx(float(ref),
                                                         rel=1e-13)


class TestPerturbationStability:
    def _instance(self, seed, c=0.1, m=15):
        rng = np.random.default_rng(seed)
        A = np.diag(rng.uniform(1.0, 2.0, m)).astype(complex)
        pos = np.arange(m, dtype=float)[:, None]
        dist = np.abs(pos[:, None, 0] - pos[None, :, 0])
        raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        raw = 0.5 * (raw + raw.conj().T)
        B1 = raw * np.exp(-c * dist)
        return A, B1, pos

    def test_zero_perturbation(self):
        A, _, pos = self._instance(0)
        rep = perturbation_stability(A, np.zeros_like(A), pos, eps1=0.9,
                                     c=0.1)
        assert rep.hypothesis_met
        assert rep.norm_ok and rep.entry_ok
        assert rep.max_entry_excess <= 0.0

    def test_small_perturbation_conclusions_hold(self):
        A, B1, pos = self._instance(1)
        probe = perturbation_stability(A, B1, pos, eps1=0.9, c=0.1)
        scale = 0.4 / probe.hypothesis_value
        rep = perturbation_stability(A, scale * B1, pos, eps1=0.9, c=0.1)
        assert rep.hypothesis_met
        assert rep.hypothesis_value == pytest.approx(0.4, rel=1e-8)
        assert rep.norm_ok and rep.entry_ok

    def test_hypothesis_not_met_is_reported(self):
        A, B1, pos = self._instance(2)
        rep = perturbation_stability(A, B1, pos, eps1=0.9, c=0.1)
        assert not rep.hypothesis_met
        assert rep.norm_ok is None and rep.entry_ok is None

    def test_bad_certificate_rejected(self):
        A, B1, pos = self._instance(3)
        with pytest.raises(ValueError):
            perturbation_stability(A, B1, pos, eps1=5.0, c=0.1)


class TestLocalizationDiagnostic:
    """The single-particle operator's spectrum under theta -> theta + alpha."""

    def test_theta_shift_covariance(self):
        p = reference_params(1e-3, 0.0)
        shifted = ModelParams(
            V=p.V, alpha=p.alpha, theta=(p.theta[0] + p.alpha[0],),
            epsilon=p.epsilon, delta=p.delta, p=p.p, sites=p.sites, a=p.a)
        # V((n+1) alpha + theta) = V(n alpha + (theta + alpha)): interior
        # eigenvalues agree after translating the box by one site
        R = 40
        def spectrum(q):
            ns = np.arange(-R, R + 1)
            H = np.diag([q.mu_n((int(n),)) for n in ns]).astype(float)
            H += np.diag([q.epsilon] * (2 * R), 1)
            H += np.diag([q.epsilon] * (2 * R), -1)
            return np.linalg.eigvalsh(H)
        e1 = spectrum(p)
        e2 = spectrum(shifted)
        # bulk spectra agree up to boundary effects of one site
        assert np.median(np.abs(np.sort(e1) - np.sort(e2))) <= 1e-3

