import dataclasses
import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qpnls.lattice import (Region, frozen_mode_sites, index_region,
                           index_sites, recenter, sup_norm)
from qpnls.potential import ModelParams, TrigPoly, base_frequencies, \
    reference_params
from qpnls import linop, solver
from qpnls.solver import (DivergedError, FourierState, _frequency_update,
                          anchor_sites,
                          certificates_for, convolution_nonlinearity,
                          decay_sum, evaluate_F, initial_state,
                          linearization_coupling, newton_step, residual_sup,
                          run_solver, solution_from_record,
                          solution_to_record, solve_Q, symmetrize)


def brute_force_nonlinearity(state, p):
    """O(m^2p) direct convolution oracle over all coefficient tuples."""
    plus = {s: v for s, v in state.coeffs.items() if s[2] > 0}
    minus = {s: v for s, v in state.coeffs.items() if s[2] < 0}
    out = {}
    factors_per_layer = {
        +1: [plus] + [plus, minus] * p,
        -1: [minus] + [plus, minus] * p,
    }
    for xi, factors in factors_per_layer.items():
        for combo in itertools.product(*[f.items() for f in factors]):
            n = combo[0][0][1]
            if any(site[1] != n for site, _ in combo):
                continue
            k = tuple(sum(c) for c in zip(*[site[0] for site, _ in combo]))
            val = 1.0
            for _, v in combo:
                val *= v
            key = (k, n, xi)
            out[key] = out.get(key, 0.0) + val
    return {k: v for k, v in out.items() if abs(v) > 0}


def b2_params():
    """Two excited sites (b = 2), the benchmark's b = 2 instance."""
    return ModelParams(V=TrigPoly.cosine(1), alpha=(0.4142135623,),
                       theta=(0.17,), epsilon=1e-3, delta=1e-3, p=1,
                       sites=((0,), (2,)), a=(1.5, 1.2))


def b3_params():
    """Three excited sites (b = 3)."""
    return ModelParams(V=TrigPoly.cosine(1), alpha=(0.4142135623,),
                       theta=(0.17,), epsilon=1e-3, delta=1e-3, p=1,
                       sites=((0,), (2,), (-3,)), a=(1.5, 1.2, 1.0))


def d2_params():
    """One excited site in d = 2."""
    return ModelParams(V=TrigPoly(d=2, K=1, gamma=((1, 1),), v=(1.0,)),
                       alpha=(0.4142135623, 0.7320508076), theta=(0.17, 0.05),
                       epsilon=1e-3, delta=1e-3, p=1, sites=((0, 0),),
                       a=(1.5,))


def both_layers(state):
    """u and the derived v(k, n) = u(-k, n), the conjugate mirror of the
    real u, on a last layer axis, + first: index_region's site order on
    the state's box."""
    return np.stack([state.amp, solver._mirror(state.amp, state.b)], -1)


def layered_at(idx, radii):
    """Fancy index of the indexed sites in a both_layers array of the
    given radii."""
    return tuple((idx.positions + radii).T) + ((idx.layers < 0).astype(int),)


def layered_gather(state, idx):
    """Both layers' amplitudes at the indexed sites, zero outside the
    state's box."""
    radii = np.abs(idx.positions).max(axis=0)
    return recenter(both_layers(state), radii)[layered_at(idx, radii)]


def layered_residual(state, omega, params):
    """The residual of both layers, layer axis last, as the layered state
    gave it: the nonlinearity (u*v)^p * u and (u*v)^p * v per layer, and
    the layered operator on the whole residual box, the nonlinearity's k
    radius widened by one hop in n.  The oracle for the plus-layer
    residual and its derived minus layer."""
    b, d = state.b, state.d
    layered = both_layers(state)
    w = solver._uv_powers(layered[..., 0], layered[..., 1], b, params.p)[-1]
    nl = solver._conv(layered, w[..., None], b)
    Rk, Rn = state.radii
    radii = ((2 * params.p + 1) * Rk,) * b + (Rn + 1,) * d
    idx = index_region(Region.box([-r for r in radii], radii), b)
    values = (linop.lattice_operator(params, omega, idx)
              @ recenter(layered, radii).ravel()
              + params.delta * recenter(nl, radii).ravel())
    return values.reshape(tuple(2 * r + 1 for r in radii) + (2,))


def random_plus_coeffs(rng, b, d, count, k_max=3, n_max=2, scale=1.0):
    """{(k, n, +1): value} at random sites with random real values."""
    coeffs = {}
    for _ in range(count):
        k = tuple(int(c) for c in rng.integers(-k_max, k_max + 1, b))
        n = tuple(int(c) for c in rng.integers(-n_max, n_max + 1, d))
        coeffs[(k, n, 1)] = float(rng.standard_normal()) * scale
    return coeffs


def perturbed_state(params, seed):
    """The anchors and eight random real amplitudes of size 1e-2 at
    |k| <= 2, |n| <= 1.  They couple more sites through B,
    p (u*v)^(p-1) * u * u, than a run's first state, the anchors alone."""
    coeffs = random_plus_coeffs(np.random.default_rng(seed), params.b,
                                params.d, 8, k_max=2, n_max=1, scale=1e-2)
    return FourierState.from_coeffs(coeffs, params.b, params.d,
                                    anchor_sites(params))


def with_mirrors(coeffs):
    """Plus-layer coefficients together with their minus-layer mirrors."""
    out = dict(coeffs)
    for (k, n, _), v in coeffs.items():
        out[(tuple(-c for c in k), n, -1)] = np.conj(v)
    return out


def assert_bitwise_equal(a, b):
    """Same shape, values and sign bits, real and imaginary parts."""
    assert a.shape == b.shape
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert np.array_equal(a.view(float), b.view(float))
    assert np.array_equal(np.signbit(a.view(float)),
                          np.signbit(b.view(float)))


def coupling_blocks(state, params):
    """The four layer blocks of the coupling kernel, each convolved on its
    own: (p+1)(u*v)^p on the diagonal, p (u*v)^(p-1) * u * u and
    p (u*v)^(p-1) * v * v across."""
    b, p = state.b, params.p
    u, v = state.amp, solver._mirror(state.amp, b)
    powers = solver._uv_powers(u, v, b, p)
    uu, vv = solver._conv(u, u, b), solver._conv(v, v, b)
    if p >= 2:
        uu, vv = (solver._conv(powers[-2], w, b) for w in (uu, vv))
    return {(+1, +1): (p + 1) * powers[-1], (-1, -1): (p + 1) * powers[-1],
            (+1, -1): p * uu, (-1, +1): p * vv}


def layered_coupling(state, params, n_values, dk_radius):
    """The coupling kernel of the layered Newton system: all four blocks
    of coupling_blocks, on the n values of the state's box, with
    linearization_coupling's cut."""
    b, Rn = state.b, state.radii[1]
    blocks = coupling_blocks(state, params)
    kernel = {}
    for n in n_values:
        if sup_norm(n) > Rn:
            continue
        at = (Ellipsis,) + tuple(c + Rn for c in n)
        for (xi, xip), arr in blocks.items():
            window = recenter(arr[at], (dk_radius,) * b)
            nz = np.argwhere(params.delta * np.abs(window)
                             > solver._ROUND_OFF * params.epsilon)
            for dk, val in zip((nz - dk_radius).tolist(),
                               window[tuple(nz.T)].tolist()):
                kernel[(tuple(dk), n, xi, xip)] = val
    return kernel


def layered_newton_step(state, omega, params, N):
    """The Newton step on both layers: the operator on the
    layered cube minus the frozen anchors with all four coupling blocks,
    factored by the public splu, its correction subtracted from both
    layers, which symmetrize folds back onto the plus layer."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu
    b, d = params.b, params.d
    idx = index_region(Region.cube(b + d, N), b,
                       frozen_mode_sites(params.sites))
    S = layered_coupling(state, params,
                         itertools.product(range(-N, N + 1), repeat=d), 2 * N)
    A = linop.lattice_operator(params, omega, idx, 0.0, S).tocsc()
    lu = splu(csc_matrix(A, shape=(idx.m, idx.m)), permc_spec="MMD_AT_PLUS_A")
    delta = lu.solve(layered_gather(evaluate_F(state, omega, params), idx))
    Rk, Rn = state.radii
    radii = (max(Rk, N),) * b + (max(Rn, N),) * d
    layered = recenter(both_layers(state), radii)
    layered[layered_at(idx, radii)] -= delta
    return symmetrize(layered, b), float(np.abs(delta).max())


def uncut_coupling(state, params, n_values, dk_radius):
    """linearization_coupling's kernel with every nonzero entry kept."""
    n_values, kernel = set(n_values), {}
    for (xi, xip), arr in coupling_blocks(state, params).items():
        centre = [(s - 1) // 2 for s in arr.shape]
        for at in zip(*np.nonzero(arr)):
            dk = tuple(int(c - o) for c, o in zip(at, centre))
            n = dk[state.b:]
            if n in n_values and sup_norm(dk[:state.b]) <= dk_radius:
                kernel[(dk[:state.b], n, xi, xip)] = float(arr[at])
    return kernel


# (params, N_cap): the reference case, b = 2, d = 2, and p = 2 at a
# stronger coupling.
PARITY_CASES = [
    (reference_params(), 16),
    (b2_params(), 5),
    (d2_params(), 4),
    (dataclasses.replace(reference_params(0.03, 0.03), p=2), 16),
]


def reference_loop(params, M=2, r_max=10, tol=1e-11, N_cap=16):
    """run_solver's loop with solve_Q called afresh on every state:
    (residual, omega) per step as the trace records them, and the final
    omega."""
    state = initial_state(params)
    omega = solve_Q(state, params)
    res = residual_sup(evaluate_F(state, omega, params))
    steps = []
    for r in range(r_max):
        if res < tol:
            break
        state, _ = newton_step(state, omega, params,
                               min(M ** (r + 1), N_cap))
        res = residual_sup(evaluate_F(state, omega, params))
        steps.append((res, tuple(float(x) for x in omega)))
        omega = solve_Q(state, params)
    return steps, tuple(float(x) for x in omega)


class TestLayout:
    @pytest.mark.parametrize("b, d", [(2, 1), (1, 2)])
    def test_box_order_is_index_region_order(self, b, d):
        rng = np.random.default_rng(10 * b + d)
        for _ in range(5):
            coeffs = random_plus_coeffs(rng, b, d, int(rng.integers(1, 12)))
            state = FourierState.from_coeffs(coeffs, b, d, {})
            want = with_mirrors(coeffs)
            assert state.coeffs == want
            Rk, Rn = state.radii
            radii = (Rk,) * b + (Rn,) * d
            assert state.amp.shape == tuple(2 * r + 1 for r in radii)
            idx = index_region(Region.box([-r for r in radii], radii), b)
            flat = both_layers(state).ravel()
            assert flat.size == idx.m
            for i, site in enumerate(idx.sites):
                assert flat[i] == state.get(site) == want.get(site, 0.0)

    @pytest.mark.parametrize("b, d", [(1, 1), (2, 1), (1, 2)])
    def test_minus_layer_is_conjugate_mirror(self, b, d):
        state = FourierState.from_coeffs(
            random_plus_coeffs(np.random.default_rng(b + 7 * d), b, d, 10),
            b, d, {})
        Rk, Rn = state.radii
        radii = (Rk,) * b + (Rn,) * d
        minus = 0
        for site in index_region(Region.box([-r for r in radii], radii),
                                 b).sites:
            k, n, xi = site
            if xi < 0:
                mirror = state.get((tuple(-c for c in k), n, 1))
                assert state.get(site) == np.conj(mirror)
                minus += site in state.coeffs
        # coeffs lists both layers
        assert minus == len(state.coeffs) // 2 > 0

    @pytest.mark.parametrize("params, N_cap", PARITY_CASES,
                             ids=["reference", "b2", "d2", "p2"])
    def test_get_bitwise_equals_layered_gather(self, params, N_cap):
        # get reads amp at (k, n), or its conjugate at (-k, n) on the minus
        # layer, bitwise as a complex layered box gives it, sign of zero
        # included (-0.0 on the minus layer); outside the box it is +0.
        state = run_solver(params, N_cap=N_cap).state
        b, d = state.b, state.d
        Rk, Rn = state.radii
        radii = (Rk + 1,) * b + (Rn + 1,) * d
        sites = index_region(Region.box([-r for r in radii], radii), b).sites
        outside = [s for s in sites
                   if sup_norm(s[0]) > Rk or sup_norm(s[1]) > Rn]
        assert len(outside) >= 4 and {s[2] for s in outside} == {-1, 1}
        u = state.amp.astype(complex)
        layered = recenter(np.stack(
            [u, np.conj(np.flip(u, tuple(range(b))))], -1), radii)
        got = np.array([state.get(site) for site in sites])
        want = np.array([layered[layered_at(index_sites([site]), radii)][0]
                         for site in sites])
        assert np.abs(got).max() > 0
        assert_bitwise_equal(got, want)

    def test_minus_layer_key_rejected(self):
        with pytest.raises(ValueError, match="minus layer"):
            FourierState.from_coeffs({((1,), (0,), -1): 1.0}, 1, 1, {})
        with pytest.raises(ValueError, match="minus layer"):
            FourierState.from_coeffs({}, 1, 1, {((1,), (0,), -1): 1.0})


class TestInitialState:
    def test_two_nonzero_entries(self):
        state = initial_state(reference_params())
        assert len(state.coeffs) == 2
        assert state.get((((1,)), (0,), 1)) == 1.5
        assert state.get((((-1,)), (0,), -1)) == 1.5

    def test_support_radius(self):
        p = ModelParams(V=TrigPoly.cosine(1), alpha=(0.3,), theta=(0.1,),
                        epsilon=0.0, delta=0.0, p=1, sites=((4,),), a=(1.0,))
        assert initial_state(p).support_radius() == 4

    def test_conjugacy_defect_zero(self):
        # Only the plus layer is stored; the minus layer is its exact
        # conjugate mirror, so the recorded defect is 0 by construction.
        p = b2_params()
        state = initial_state(p)
        assert state.amp.shape == (3, 3, 5)
        assert state.coeffs == with_mirrors(anchor_sites(p))
        assert np.array_equal(both_layers(state)[..., 1],
                              np.conj(state.amp[::-1, ::-1]))
        assert certificates_for(state, base_frequencies(p),
                                p).conjugacy_defect == 0.0


class TestConvolution:
    def test_anchor_cube(self):
        p = reference_params()
        state = initial_state(p)
        nl = convolution_nonlinearity(state, 1)
        a = p.a[0]
        assert nl.coeffs[((1,), (0,), 1)] == pytest.approx(a ** 3)
        assert nl.coeffs[((-1,), (0,), -1)] == pytest.approx(a ** 3)

    def test_zero_state(self):
        state = FourierState.from_coeffs({}, 1, 1, {})
        assert convolution_nonlinearity(state, 1).coeffs == {}

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for p_pow in (1, 2):
            coeffs = random_plus_coeffs(rng, 1, 1, 6, k_max=2, n_max=1)
            state = FourierState.from_coeffs(coeffs, 1, 1, {})
            fast = convolution_nonlinearity(state, p_pow).coeffs
            slow = brute_force_nonlinearity(state, p_pow)
            keys = set(fast) | set(slow)
            for key in keys:
                assert fast.get(key, 0.0) == pytest.approx(
                    slow.get(key, 0.0), abs=1e-12)


class TestKeptConvolutions:
    def test_kept_equal_fresh(self):
        # A state computes its powers and nonlinearity once per p; the kept
        # values are bitwise the ones computed afresh from amp.
        for params, N_cap in PARITY_CASES:
            state = run_solver(params, N_cap=N_cap).state
            u, v = state.amp, solver._mirror(state.amp, state.b)
            for p in (1, 2, 3):
                nl = convolution_nonlinearity(state, p)
                assert convolution_nonlinearity(state, p) is nl
                fresh = solver._uv_powers(u, v, state.b, p)
                kept = state._convolved(p)[0]
                assert len(kept) == p
                for got, want in zip(kept, fresh):
                    assert_bitwise_equal(got, want)
                assert_bitwise_equal(
                    nl.amp, solver._conv(u, fresh[-1], state.b))

    def test_solve_b2_convolves_each_state_once(self, monkeypatch):
        # The benchmark's b = 2 solve has four states: the seed and three
        # Newton steps.  Each is convolved for u*v and (u*v) u once, and
        # each of the first three for u*u once more, for the coupling.
        calls, conv = [], solver._conv

        def counted(*args):
            calls.append(1)
            return conv(*args)

        monkeypatch.setattr(solver, "_conv", counted)
        assert run_solver(b2_params(), N_cap=5).newton_steps == 3
        assert len(calls) == 11


class TestEvaluateF:
    def test_decoupled_exact_zero(self):
        p = reference_params(0.0, 0.0)
        state = initial_state(p)
        res = evaluate_F(state, base_frequencies(p), p)
        assert residual_sup(res) <= 1e-15

    def test_hopping_only_residual(self):
        p = reference_params(1e-3, 0.0)
        state = initial_state(p)
        res = evaluate_F(state, base_frequencies(p), p)
        # only the hopping term survives: eps * a at the anchor's neighbors
        assert set(res.coeffs) == {((1,), (1,), 1), ((1,), (-1,), 1),
                            ((-1,), (1,), -1), ((-1,), (-1,), -1)}
        for v in res.coeffs.values():
            assert abs(v) == pytest.approx(1e-3 * 1.5)

    def test_residual_conjugacy_mirror(self):
        # The derived minus-layer rows agree with the minus-layer
        # equations evaluated on their own, to the round-off of their
        # terms, which scale with the amplitudes, not with the residual.
        for params, N_cap in ((reference_params(), 16), (b2_params(), 5)):
            sol = run_solver(params, N_cap=N_cap)
            for state in (initial_state(params), sol.state):
                res = both_layers(evaluate_F(state, sol.omega, params))
                want = layered_residual(state, sol.omega, params)
                assert np.array_equal(res[..., 0], want[..., 0])
                assert (np.abs(res - want).max()
                        <= 1e-15 * np.abs(state.amp).max())

    def test_d2_brute_force_neighbour_sum(self):
        p = ModelParams(V=TrigPoly(d=2, K=1, gamma=((1, 1), (1, -1)),
                                   v=(1.0, 0.3)),
                        alpha=(0.4142135623, 0.7320508076),
                        theta=(0.17, 0.05), epsilon=2e-3, delta=1e-3, p=1,
                        sites=((0, 0),), a=(1.5,))
        om = base_frequencies(p) + 1e-4
        rng = np.random.default_rng(29)
        coeffs = random_plus_coeffs(rng, 1, 2, 10, k_max=2, scale=0.1)
        state = FourierState.from_coeffs(coeffs, 1, 2, anchor_sites(p))
        res = evaluate_F(state, om, p)
        nl = brute_force_nonlinearity(state, p.p)
        rows = set(state.coeffs) | set(nl)
        for k, n, xi in state.coeffs:
            for j in range(2):
                for step in (-1, 1):
                    m = list(n)
                    m[j] += step
                    rows.add((k, tuple(m), xi))
        want = {}
        for site in rows:
            k, n, xi = site
            val = (xi * (-k[0] * om[0]) + p.mu_n(n)) * state.get(site)
            for j in range(2):
                for step in (-1, 1):
                    m = list(n)
                    m[j] += step
                    val += p.epsilon * state.get((k, tuple(m), xi))
            val += p.delta * nl.get(site, 0.0)
            if abs(val) > 1e-15:
                want[site] = val
        assert set(want) <= set(res.coeffs)
        for site, val in res.coeffs.items():
            assert val == pytest.approx(want.get(site, 0.0), abs=1e-14)

    @pytest.mark.parametrize("params, N_cap", PARITY_CASES,
                             ids=["reference", "b2", "d2", "p2"])
    def test_bitwise_equals_wide_box_residual(self, monkeypatch, params,
                                              N_cap):
        # Every residual of a run, the frequency solves' included, is
        # bitwise the plus layer of the layered residual on the wide box.
        seen = []

        def checked(state, omega, params):
            out = evaluate_F(state, omega, params)
            assert_bitwise_equal(
                out.amp, layered_residual(state, omega, params)[..., 0])
            seen.append(out)
            return out

        monkeypatch.setattr(solver, "evaluate_F", checked)
        run_solver(params, N_cap=N_cap)
        assert len(seen) >= 6

    @pytest.mark.parametrize("params, N_cap", PARITY_CASES,
                             ids=["reference", "b2", "d2", "p2"])
    def test_bitwise_after_one_newton_step(self, params, N_cap):
        state = initial_state(params)
        om = solve_Q(state, params)
        state, _ = newton_step(state, om, params, min(2, N_cap))
        assert_bitwise_equal(evaluate_F(state, om, params).amp,
                             layered_residual(state, om, params)[..., 0])

    def test_cut_never_reaches_residual(self):
        # A tail amplitude of 1e-10 at k = 4 beside the anchor at k = 1
        # puts coupling entries below Newton's cut into the kernel, and a
        # nonlinear term of 1.5e-20 at k = 7, u(4) u(4) conj u(1), where
        # no amplitude or hop reaches.  The residual keeps that row, equal
        # to the direct sum over k1 + k2 + k3 = k of u(k1) v(k2) u(k3).
        p = reference_params()
        state = FourierState.from_coeffs({((4,), (0,), 1): 1e-10}, 1, 1,
                                         anchor_sites(p))
        kernel = uncut_coupling(state, p, [(0,)], dk_radius=8)
        kept = linearization_coupling(state, p, [(0,)], dk_radius=8)
        assert kept.items() < kernel.items()
        u = {k: c for (k, _, xi), c in state.coeffs.items() if xi > 0}
        v = {k: c for (k, _, xi), c in state.coeffs.items() if xi < 0}
        nl = {}
        for (k1, a), (k2, c), (k3, e) in itertools.product(
                u.items(), v.items(), u.items()):
            k = (k1[0] + k2[0] + k3[0],)
            nl[k] = nl.get(k, 0.0) + a * c * e
        res = evaluate_F(state, solve_Q(state, p), p)
        far = [k for k in nl if k not in u]
        assert far == [(-2,), (7,)]
        assert abs(p.delta * nl[(7,)]) < solver._ROUND_OFF * p.epsilon
        for k in far:
            got = res.get((k, (0,), 1))
            assert got != 0 and got == pytest.approx(p.delta * nl[k],
                                                     rel=1e-14)

    def test_operator_built_on_state_k_box(self, monkeypatch):
        # D and the hopping are diagonal in k and in the layer, so the
        # residual's operator needs only the plus layer of the state's k
        # box, widened by one hop in n, and no layered indexing.
        p = b2_params()
        sol = run_solver(p, N_cap=5)
        boxes = []

        def recording(params, omega, radii):
            boxes.append(tuple(radii))
            return linop.box_operator(params, omega, radii)

        def layered(*args, **kwargs):
            raise AssertionError("evaluate_F indexed a layered region")

        monkeypatch.setattr(solver, "box_operator", recording)
        monkeypatch.setattr(solver, "index_region", layered)
        for state in (initial_state(p), sol.state):
            boxes.clear()
            evaluate_F(state, sol.omega, p)
            Rk, Rn = state.radii
            assert boxes == [(Rk,) * p.b + (Rn + 1,) * p.d]


class TestSolveQ:
    def test_first_order_shift(self):
        p = reference_params(0.0, 1e-3)
        state = initial_state(p)
        om = solve_Q(state, p)
        om0 = base_frequencies(p)
        assert om[0] - om0[0] == pytest.approx(1e-3 * 1.5 ** 2, abs=1e-15)

    def test_couplings_off(self):
        p = reference_params(0.0, 0.0)
        om = solve_Q(initial_state(p), p)
        assert np.array_equal(om, base_frequencies(p))

    def test_anchor_rows_solved_exactly_b2(self):
        # One Newton step away from the seed, the Q-solve zeroes the real
        # part of both anchor rows to round-off.
        p = b2_params()
        state = initial_state(p)
        state, _ = newton_step(state, solve_Q(state, p), p, N=2)
        res = evaluate_F(state, solve_Q(state, p), p)
        for site in anchor_sites(p):
            assert abs(res.get(site).real) <= 1e-15

    def test_anchor_rows_vanish_after_solve(self):
        p = reference_params()
        sol = run_solver(p)
        res = evaluate_F(sol.state, sol.omega, p)
        for site in anchor_sites(p):
            assert abs(res.coeffs.get(site, 0.0)) <= 1e-12


class TestFrequencyUpdate:
    @pytest.mark.parametrize("params, N_cap", [(reference_params(), 16),
                                               (b2_params(), 5)],
                             ids=["reference", "b2"])
    def test_trace_equals_solve_Q_per_state(self, params, N_cap):
        sol = run_solver(params, N_cap=N_cap)
        steps, omega = reference_loop(params, N_cap=N_cap)
        assert [(s["residual"], s["omega"]) for s in sol.trace.steps] \
            == steps
        assert sol.omega == omega

    def test_solve_Q_once_per_run(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_Q(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_Q", counted)
        for params in (reference_params(), b2_params()):
            calls.clear()
            assert run_solver(params, N_cap=5).newton_steps >= 3
            assert len(calls) == 1

    def test_exact_from_any_omega(self):
        p = b2_params()
        state = initial_state(p)
        state, _ = newton_step(state, solve_Q(state, p), p, N=2)
        om = base_frequencies(p) + 0.01
        got = _frequency_update(evaluate_F(state, om, p), om, p)
        assert np.abs(got - solve_Q(state, p)).max() <= 1e-15


class TestNewtonStep:
    def test_fixed_point_unchanged(self):
        p = reference_params(0.0, 0.0)
        state = initial_state(p)
        om = base_frequencies(p)
        new, corr = newton_step(state, om, p, N=2)
        assert corr <= 1e-15
        assert residual_sup(evaluate_F(new, om, p)) <= 1e-14

    def test_coupling_kernel_structure(self):
        p = reference_params()
        state = initial_state(p)
        S = linearization_coupling(state, p, [(0,)], dk_radius=4)
        # n-diagonal and Toplitz by construction: keys carry dk only
        for (dk, n, xi, xip) in S:
            assert n == (0,)

    @pytest.mark.parametrize("params, N_cap", PARITY_CASES,
                             ids=["reference", "b2", "d2", "p2"])
    def test_matches_layered_step(self, monkeypatch, params, N_cap):
        # Newton on the plus layer's folded system stops for the same
        # reason after as many steps as the layered step folded back by
        # symmetrize, at amplitudes within 1e-20 of its.  Every state of
        # the run is float64.
        def real_step(state, *args):
            new, corr = newton_step(state, *args)
            assert state.amp.dtype == new.amp.dtype == np.float64
            return new, corr

        monkeypatch.setattr(solver, "newton_step", real_step)
        real = run_solver(params, N_cap=N_cap)
        monkeypatch.setattr(solver, "newton_step", layered_newton_step)
        layered = run_solver(params, N_cap=N_cap)
        assert (real.stop_reason, real.newton_steps) \
            == (layered.stop_reason, layered.newton_steps)
        assert real.newton_steps >= 3
        assert real.state.amp.shape == layered.state.amp.shape
        assert np.abs(real.state.amp - layered.state.amp).max() <= 1e-20

    @pytest.mark.parametrize("params, N_cap", [PARITY_CASES[1],
                                               PARITY_CASES[3]],
                             ids=["b2", "p2"])
    def test_cut_keeps_newton_outcome(self, monkeypatch, params, N_cap):
        # Newton on the uncut kernel stops for the same reason after as many
        # steps, at amplitudes within 1e-20 of the cut run's.
        cut = run_solver(params, N_cap=N_cap)
        sizes = []

        def uncut(state, params, n_values, dk_radius):
            n_values = list(n_values)
            kernel = uncut_coupling(state, params, n_values, dk_radius)
            kept = linearization_coupling(state, params, n_values, dk_radius)
            assert kept.items() <= kernel.items()
            sizes.append((len(kept), len(kernel)))
            return kernel

        monkeypatch.setattr(solver, "linearization_coupling", uncut)
        full = run_solver(params, N_cap=N_cap)
        assert (full.stop_reason, full.newton_steps) \
            == (cut.stop_reason, cut.newton_steps)
        assert full.state.amp.shape == cut.state.amp.shape
        assert np.abs(full.state.amp - cut.state.amp).max() <= 1e-20
        assert len(sizes) == full.newton_steps
        if params.b == 2:
            assert sum(k for k, _ in sizes) < sum(n for _, n in sizes)

    def test_coupling_hermitian_in_assembly(self, monkeypatch):
        # The layered operator is Hermitian and its block on the mirror
        # sites complex symmetric, so the float64 matrix of every Newton
        # step equals its transpose, bitwise: its CSR arrays are its CSC
        # arrays.  Each step factors the P x P block Ar + Br.
        seen, newton_matrix = [], solver._newton_matrix

        def checked(*args):
            plus, A = newton_matrix(*args)
            assert A.data.dtype == np.float64 and A.m == len(plus)
            for got, want in zip(A.tocsc(), (A.data, A.indices, A.indptr)):
                assert np.array_equal(got, want)
            seen.append(A.m)
            return plus, A

        monkeypatch.setattr(solver, "_newton_matrix", checked)
        for params, N_cap in (PARITY_CASES[0], PARITY_CASES[1],
                              PARITY_CASES[3]):
            run_solver(params, N_cap=N_cap)
        assert len(seen) == 11

    def test_quadratic_remainder(self):
        # the post-step residual is second order in the correction size
        p = reference_params()
        state = initial_state(p)
        om = solve_Q(state, p)
        r0 = residual_sup(evaluate_F(state, om, p))
        state1, corr = newton_step(state, om, p, N=4)
        r1 = residual_sup(evaluate_F(state1, om, p))
        assert r1 <= 100 * corr ** 2 + 1e-14
        assert r1 < r0

    def test_singular_operator_reported(self):
        # With omega = mu_1 the diagonal -k . omega + mu_n is exactly zero
        # at ((1,), (1,), +), which the anchor ((1,), (0,), +) does not
        # freeze; at eps = delta = 0 that zero is the whole row.
        from qpnls.linop import SingularOperatorError
        p = reference_params(0.0, 0.0)
        with pytest.raises(SingularOperatorError) as err:
            newton_step(initial_state(p), [p.mu_n((1,))], p, N=2)
        assert err.value.smallest_singular_value == 0.0

    def test_singular_above_svd_cutoff_reports_nan(self, monkeypatch):
        # The same zero row, with the dense-SVD cutoff below m = 24: the
        # state is real, so only Ar + Br, one row per plus unknown, is
        # factored.
        from qpnls.linop import SingularOperatorError
        monkeypatch.setattr(solver, "_SVD_MAX_M", 10)
        p = reference_params(0.0, 0.0)
        with pytest.raises(SingularOperatorError) as err:
            newton_step(initial_state(p), [p.mu_n((1,))], p, N=2)
        assert math.isnan(err.value.smallest_singular_value)
        assert "not computed for m=24" in str(err.value)

    def test_non_finite_operator_reports_nan(self):
        # An amplitude of 1e150 makes (u*v) u overflow, so omega and the
        # matrix are not finite; SuperLU refuses it, and no SVD is run.
        from qpnls.linop import SingularOperatorError
        p = dataclasses.replace(reference_params(), a=(1e150,))
        state = initial_state(p)
        with np.errstate(all="ignore"):
            omega = solve_Q(state, p)
            with pytest.raises(SingularOperatorError) as err:
                newton_step(state, omega, p, N=2)
        assert math.isnan(err.value.smallest_singular_value)
        assert "not finite" in str(err.value)

    def test_complex_state_refused(self):
        # Every state is real, so a complex amplitude is refused where a
        # state is made, before any residual or Newton matrix; a zero
        # imaginary part is a real amplitude.
        params = b2_params()
        anchors = anchor_sites(params)
        assert all(type(v) is float for v in anchors.values())
        for value in (0.01 + 0.02j, np.complex128(1e-300j)):
            with pytest.raises(ValueError, match="real"):
                FourierState.from_coeffs({((1, 1), (1,), 1): value},
                                         params.b, params.d, anchors)
        state = FourierState.from_coeffs({((1, 1), (1,), 1): 0.01 + 0j},
                                         params.b, params.d, anchors)
        assert state.amp.dtype == np.float64
        assert state.get(((1, 1), (1,), 1)) == 0.01

    @pytest.mark.parametrize("params, N", [
        (reference_params(), 4),
        (b2_params(), 2),
        (d2_params(), 2),
    ], ids=["reference", "b2", "d2"])
    def test_correction_matches_dense_solve(self, params, N):
        state = perturbed_state(params, 43)
        om = solve_Q(state, params)
        S = layered_coupling(
            state, params,
            itertools.product(range(-N, N + 1), repeat=params.d),
            dk_radius=2 * N)
        assert any(xi != xip for _, _, xi, xip in S)  # B and its mirror
        idx = index_region(Region.cube(params.b + params.d, N), params.b,
                           frozen_mode_sites(params.sites))
        matrix = linop.lattice_operator(params, om, idx, 0.0, S).toarray()
        rhs = layered_gather(evaluate_F(state, om, params), idx)
        dense = np.linalg.solve(matrix, rhs)
        new, corr = newton_step(state, om, params, N)
        # Both layers of the correction are read from the plus layer.
        sparse = (layered_gather(state, idx) - layered_gather(new, idx))
        scale = np.abs(dense).max()
        assert scale > 0
        assert np.abs(sparse - dense).max() <= 1e-12 * scale
        assert corr == pytest.approx(scale, rel=1e-12)

    @pytest.mark.parametrize("params, N", [
        (reference_params(), 4),
        (b2_params(), 2),
        (b2_params(), 5),
        (d2_params(), 2),
    ], ids=["reference-N4", "b2-N2", "b2-N5", "d2-N2"])
    def test_correction_bitwise_equals_public_splu(self, params, N):
        # newton_step calls SuperLU's gstrf itself on its float64 matrix;
        # it must factor exactly as the public splu with the same column
        # order does.
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu
        state = perturbed_state(params, 47)
        om = solve_Q(state, params)
        plus, A = solver._newton_matrix(state, om, params, N)
        csc = A.tocsc()
        assert csc[0].dtype == np.float64 and A.m == len(plus)
        Rk, Rn = state.radii
        radii = (max(Rk, N),) * params.b + (max(Rn, N),) * params.d
        at = tuple((plus + radii).T)
        rhs = recenter(evaluate_F(state, om, params).amp, radii)[at]
        assert rhs.dtype == np.float64
        lu = splu(csc_matrix(csc, shape=(A.m, A.m)),
                  permc_spec="MMD_AT_PLUS_A")
        x = lu.solve(rhs)
        assert np.array_equal(solver._sparse_lu(csc).solve(rhs), x)
        # newton_step subtracts x from the plus layer at those sites.
        new, _ = newton_step(state, om, params, N)
        want = recenter(state.amp, radii)
        want[at] -= x
        assert_bitwise_equal(new.amp, want)
        # The adjoint solve an a posteriori bound would use agrees too.
        assert np.array_equal(solver._sparse_lu(csc).solve(rhs, trans="H"),
                              lu.solve(rhs, trans="H"))

    @pytest.mark.parametrize("name, held_by_scipy, qpnls_first", [
        (solver._SUPERLU, "la._dsolve.linsolve._superlu", False),
        (solver._SUPERLU, "la._dsolve.linsolve._superlu", True),
        (linop._SPARSETOOLS, "sp._compressed._sparsetools", False),
        (linop._SPARSETOOLS, "sp._compressed._sparsetools", True),
    ], ids=["superlu-scipy-first", "superlu-qpnls-first",
            "sparsetools-scipy-first", "sparsetools-qpnls-first"])
    def test_extension_module_shared_with_scipy(self, name, held_by_scipy,
                                                qpnls_first):
        # Whichever loads a SciPy extension first, qpnls and SciPy hold one
        # module object, initialised once, and SciPy's CSR product and
        # public splu still work after qpnls has loaded it.
        scipy_side = "import scipy.sparse as sp, scipy.sparse.linalg as la"
        qpnls_side = ("from qpnls import linop, potential, solver; "
                      "p = potential.reference_params(); "
                      "s = solver.initial_state(p); "
                      "solver.newton_step(s, solver.solve_Q(s, p), p, 2)")
        code = "\n".join([
            "import sys, numpy as np",
            *((qpnls_side, scipy_side) if qpnls_first
              else (scipy_side, qpnls_side)),
            "a = sp.csc_array(np.diag([2.0, 4.0]))",
            "x = la.splu(a).solve(np.ones(2))",
            "y = sp.csr_matrix(a) @ np.ones(2)",
            f"print(linop._scipy_extension({name!r}) is sys.modules[{name!r}]"
            f" is {held_by_scipy}, x.tolist(), y.tolist())"])
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True [0.5, 0.25] [2.0, 4.0]"


class TestSymmetrize:
    def test_symmetric_unchanged(self):
        rng = np.random.default_rng(19)
        for b, d in ((1, 1), (2, 1)):
            state = FourierState.from_coeffs(
                random_plus_coeffs(rng, b, d, 10), b, d, {})
            assert_bitwise_equal(symmetrize(both_layers(state), b).amp,
                                 state.amp)

    def test_fills_missing_mirror_with_average(self):
        layered = np.zeros((5, 3, 2))
        layered[4, 2, 0] = 0.8  # ((2,), (1,), +)
        out = symmetrize(layered, 1)
        assert out.get(((2,), (1,), 1)) == pytest.approx(0.4)
        assert out.get(((-2,), (1,), -1)) == pytest.approx(0.4)

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        layered = rng.standard_normal((7, 5, 2))
        once = symmetrize(layered, 1)
        assert_bitwise_equal(symmetrize(both_layers(once), 1).amp, once.amp)


class TestRunSolver:
    def test_decoupled_zero_steps(self):
        p = reference_params(0.0, 0.0)
        sol = run_solver(p)
        assert sol.converged and sol.newton_steps == 0
        assert tuple(sol.omega) == tuple(base_frequencies(p))
        assert len(sol.state.coeffs) == 2

    def test_reference_convergence(self):
        p = reference_params()
        sol = run_solver(p)
        assert sol.converged
        assert sol.newton_steps <= 6
        assert sol.certificates.residual < 1e-10
        assert sol.certificates.omega_shift <= 10 * p.delta

    def test_decay_certificate(self):
        p = reference_params()
        sol = run_solver(p)
        assert sol.certificates.decay_sum < math.sqrt(p.epsilon + p.delta)

    def test_anchors_and_conjugacy_along_run(self):
        p = reference_params()
        sol = run_solver(p)
        for step in sol.trace.steps:
            assert step["conjugacy_defect"] <= 1e-13
            assert step["anchor_error"] == 0.0

    def test_correction_super_geometric(self):
        sol = run_solver(reference_params())
        corr = sol.trace.corrections()
        loglog = [math.log(math.log(1.0 / c)) for c in corr]
        assert all(a < b for a, b in zip(loglog, loglog[1:]))

    def test_round_trip_record(self):
        # As solution.json stores it: both layers, through JSON text.
        for params, N_cap in ((reference_params(), 16), (b2_params(), 8)):
            sol = run_solver(params, N_cap=N_cap)
            rec = solution_to_record(sol)
            plus = {(tuple(c["k"]), tuple(c["n"])): complex(c["re"], c["im"])
                    for c in rec["coeffs"] if c["xi"] == 1}
            minus = {(tuple(-x for x in c["k"]), tuple(c["n"])):
                     complex(c["re"], -c["im"])
                     for c in rec["coeffs"] if c["xi"] == -1}
            assert plus == minus and len(rec["coeffs"]) == 2 * len(plus)
            text = json.dumps(rec, sort_keys=True, indent=2)
            back = solution_from_record(json.loads(text))
            assert back.omega == sol.omega
            assert back.state.coeffs == sol.state.coeffs
            assert json.dumps(solution_to_record(back), sort_keys=True,
                              indent=2) == text

    def test_b2_large_cube_converges(self):
        # The last cube, N = 8, has m = 9,822 unknowns: 1.5 GB as a dense
        # complex matrix, a few MB as a sparse LU.
        sol = run_solver(b2_params(), N_cap=8)
        assert sol.converged
        assert sol.trace.steps[-1]["N"] == 8
        assert sol.certificates.residual < 1e-11

    def test_b3_converges_with_cut_kernel(self):
        # Three excited sites: the last cube, N = 6, has 57,116 unknowns.
        # On the uncut kernel this solve peaked at about 0.7 GB.
        sol = run_solver(b3_params(), N_cap=6)
        assert sol.converged and sol.newton_steps == 3
        assert sol.trace.steps[-1]["N"] == 6
        assert sol.certificates.residual < 1e-11

    def test_divergence_raises_with_trace(self):
        # At eps = delta = 0.2 the residual falls twice, then grows twice.
        with pytest.raises(DivergedError) as err:
            run_solver(reference_params(0.2, 0.2), N_cap=4, r_max=6)
        assert err.value.trace.residuals() == pytest.approx(
            [9.43e-2, 3.66e-3, 4.42e-3, 4.59e-3], rel=2e-3)

    @pytest.mark.parametrize("eps, delta, a", [(0.05, 0.9, 1.5),
                                                (0.4, 0.9, 5.0)])
    def test_round_off_at_floor_is_not_growth(self, eps, delta, a):
        # The residual sits at its truncation floor and rises by a few ulps.
        p = dataclasses.replace(reference_params(eps, delta), a=(a,))
        sol = run_solver(p, N_cap=4, r_max=6)
        assert sol.stop_reason == "stalled"
        assert sol.newton_steps == 6


class TestStopReason:
    def test_stalled_at_truncation_floor(self):
        # N_cap = 4 repeats a residual of 1.2e-9 from the third step on.
        sol = run_solver(b2_params(), N_cap=4, r_max=5)
        assert not sol.converged
        assert sol.stop_reason == "stalled"
        assert solution_to_record(sol)["stop_reason"] == "stalled"

    def test_reference_converged(self):
        assert run_solver(reference_params()).stop_reason == "converged"

    def test_out_of_steps(self):
        sol = run_solver(reference_params(), r_max=1)
        assert not sol.converged
        assert sol.stop_reason == "max_steps"


class TestCertificates:
    def test_recomputable(self):
        p = reference_params()
        sol = run_solver(p)
        fresh = certificates_for(sol.state, sol.omega, p)
        assert fresh.residual == pytest.approx(sol.certificates.residual,
                                               abs=1e-15)
        assert fresh.decay_sum == pytest.approx(sol.certificates.decay_sum)

    def test_decay_sum_excludes_anchors(self):
        p = reference_params()
        assert decay_sum(initial_state(p), p) == 0.0
