import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.special import jv

from qpnls.evolve import (BlowUpError, LatticeBox, closed_form_decoupled,
                          integrate, reconstruct, tail_mass, verify)
from qpnls.linop import _SPARSETOOLS, _scipy_extension, box_operator
from qpnls.potential import ModelParams, TrigPoly, reference_params
from qpnls.solver import run_solver


def free_lattice_single_site(t, eps, n_values):
    """Exact free-lattice evolution (V = 0, delta = 0, d = 1) from a unit
    amplitude at the origin: u(t, n) = i^|n| J_|n|(2 eps t)."""
    n = np.abs(np.asarray(n_values))
    return 1j ** n * jv(n, 2.0 * eps * t)


def flat_potential_params(epsilon, delta=0.0):
    return ModelParams(V=TrigPoly(d=1, K=1, gamma=((1,),), v=(0.0,)),
                       alpha=(0.3,), theta=(0.1,), epsilon=epsilon,
                       delta=delta, p=1, sites=((0,),), a=(1.0,))


def d2_params(p=1):
    return ModelParams(V=TrigPoly(d=2, K=1, gamma=((1, 1),), v=(1.0,)),
                       alpha=(0.4142135623, 0.7320508076),
                       theta=(0.17, 0.05), epsilon=0.05, delta=0.02, p=p,
                       sites=((0, 0),), a=(1.0,))


def box_index(box, n):
    """Array index of site n in a field on the box."""
    return tuple(c + box.R for c in n)


def scipy_box_operator(params, box):
    """The box operator as SciPy's own csr_matrix, the oracle of the CSR
    kernel path."""
    L = box_operator(params, (), (box.R,) * box.d)
    return csr_matrix((L.data, L.indices, L.indptr), shape=(L.m, L.m))


def random_field(box, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(box.shape)
            + 1j * rng.standard_normal(box.shape))


def reference_integrate(u0, params, box, T, dt, store_every=1):
    """RK4 as written out: L @ u with SciPy's csr_matrix, the factor 1j on
    the right-hand side, a fresh array per stage and np.linalg.norm.
    Returns (times, states, norm_drift) for comparison with integrate."""
    L = scipy_box_operator(params, box)
    delta, p = params.delta, params.p

    def rhs(u):
        lin = (L @ u.ravel()).reshape(u.shape)
        if delta != 0.0:
            lin = lin + delta * np.abs(u) ** (2 * p) * u
        return 1j * lin

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
        assert np.linalg.norm(u) <= 10.0 * max(norm0, 1e-300)
        if step % store_every == 0 or step == n_steps:
            times.append(t)
            states.append(u.copy())
    return (np.asarray(times), np.asarray(states),
            float(abs(np.linalg.norm(u) - norm0)))


class TestReconstruct:
    def test_t_zero_is_coefficient_sum(self):
        sol = run_solver(reference_params())
        box, field = reconstruct(sol, 0.0)
        per_site = {}
        for (k, n, xi), v in sol.state.coeffs.items():
            if xi > 0:
                per_site[n] = per_site.get(n, 0.0) + v
        for n, want in per_site.items():
            assert field[box_index(box, n)] == pytest.approx(want)

    def test_single_mode_modulus_constant(self):
        sol = run_solver(reference_params(0.0, 0.0))
        for t in (0.0, 0.7, 13.9):
            box, field = reconstruct(sol, t)
            assert abs(field[box_index(box, (0,))]) == pytest.approx(1.5)

    def test_exact_periodicity(self):
        sol = run_solver(reference_params(0.0, 0.0))
        om = sol.omega[0]
        T = 2 * math.pi / om
        box, f1 = reconstruct(sol, 0.3)
        _, f2 = reconstruct(sol, 0.3 + T, box)
        assert np.max(np.abs(f1 - f2)) <= 1e-12

    def test_phase_wrapped_recomputation(self):
        # the field depends on t only through k . omega t mod 2 pi
        sol = run_solver(reference_params())
        om = np.asarray(sol.omega)
        t = 7.3
        box, f1 = reconstruct(sol, t)
        wrapped = float((om[0] * t) % (2 * math.pi)) / om[0]
        _, f2 = reconstruct(sol, wrapped, box)
        assert np.max(np.abs(f1 - f2)) <= 1e-9


class TestIntegrate:
    def test_decoupled_closed_form(self):
        p = reference_params(0.0, 0.0)
        box = LatticeBox(1, 4)
        rng = np.random.default_rng(31)
        u0 = (rng.standard_normal(box.shape)
              + 1j * rng.standard_normal(box.shape))
        traj = integrate(u0, p, box, T=10.0, dt=1e-3, store_every=2000)
        for t, u in zip(traj.times, traj.states):
            exact = closed_form_decoupled(u0, p, box, float(t))
            assert np.max(np.abs(u - exact)) <= 1e-8

    def test_fourth_order_in_dt(self):
        p = ModelParams(V=TrigPoly.cosine(1), alpha=(0.33,), theta=(0.05,),
                        epsilon=0.0, delta=0.0, p=1, sites=((0,),), a=(1.0,))
        box = LatticeBox(1, 3)
        u0 = np.exp(1j * np.linspace(0, 1, 7)).astype(complex)
        errs = []
        for dt in (0.2, 0.1, 0.05):
            tr = integrate(u0, p, box, T=2.0, dt=dt, store_every=10 ** 9)
            exact = closed_form_decoupled(u0, p, box, 2.0)
            errs.append(np.max(np.abs(tr.states[-1] - exact)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for o in orders:
            assert o == pytest.approx(4.0, abs=0.2)

    def test_free_lattice_bessel_oracle(self):
        p = flat_potential_params(1e-3)
        box = LatticeBox(1, 20)
        u0 = np.zeros(box.shape, dtype=complex)
        u0[box_index(box, (0,))] = 1.0
        traj = integrate(u0, p, box, T=1.0, dt=1e-3, store_every=10 ** 9)
        ns = list(range(-20, 21))
        exact = free_lattice_single_site(1.0, 1e-3, ns)
        got = np.array([traj.states[-1][box_index(box, (n,))] for n in ns])
        assert np.max(np.abs(got - exact)) <= 1e-8

    def test_norm_conservation(self):
        p = reference_params()
        sol = run_solver(p)
        box, u0 = reconstruct(sol, 0.0)
        traj = integrate(u0, p, box, T=5.0, dt=1e-3, store_every=10 ** 9)
        assert traj.norm_drift <= 1e-8 * np.linalg.norm(u0)

    def test_d2_rk4_step_oracle(self):
        p = d2_params()
        box = LatticeBox(2, 2)
        u0 = random_field(box, 37)
        dt = 0.01

        def rhs(u):
            out = np.zeros_like(u)
            for n in itertools.product(range(-2, 3), repeat=2):
                i = box_index(box, n)
                hop = 0.0
                for j in range(2):
                    for step in (-1, 1):
                        m = list(n)
                        m[j] += step
                        if all(abs(c) <= box.R for c in m):
                            hop += u[box_index(box, tuple(m))]
                out[i] = 1j * (p.mu_n(n) * u[i] + p.epsilon * hop
                               + p.delta * abs(u[i]) ** 2 * u[i])
            return out

        k1 = rhs(u0)
        k2 = rhs(u0 + 0.5 * dt * k1)
        k3 = rhs(u0 + 0.5 * dt * k2)
        k4 = rhs(u0 + dt * k3)
        want = u0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        traj = integrate(u0, p, box, T=dt, dt=dt)
        assert np.abs(traj.states[-1] - want).max() <= 1e-14

    @staticmethod
    def assert_blows_up_on_time(dt):
        # RK4 outside its stability region amplifies every step
        p = ModelParams(V=TrigPoly(d=1, K=1, gamma=((1,),), v=(0.0,)),
                        alpha=(0.1,), theta=(0.1,), epsilon=0.9, delta=0.0,
                        p=1, sites=((0,),), a=(1.0,))
        box = LatticeBox(1, 6)
        u0 = np.ones(box.shape, dtype=complex)
        with pytest.raises(BlowUpError) as info:
            integrate(u0, p, box, T=2000.0, dt=dt)
        # it stops at the first step whose norm the oracle puts above the
        # limit
        L = scipy_box_operator(p, box)
        u, step = u0.ravel(), 0
        while np.linalg.norm(u) <= 10.0 * np.linalg.norm(u0):
            k1 = 1j * (L @ u)
            k2 = 1j * (L @ (u + 0.5 * dt * k1))
            k3 = 1j * (L @ (u + 0.5 * dt * k2))
            k4 = 1j * (L @ (u + dt * k3))
            u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            step += 1
        assert info.value.time == step * dt
        return step

    def test_blow_up_detection(self):
        assert self.assert_blows_up_on_time(4.0) == 1

    def test_blow_up_after_several_steps(self):
        assert self.assert_blows_up_on_time(1.7) == 7

    def test_invalid_dt(self):
        p = reference_params()
        with pytest.raises(ValueError):
            integrate(np.ones(3, dtype=complex), p, LatticeBox(1, 1), 1.0,
                      0.0)

    @pytest.mark.parametrize("T, dt", [(10.0, 25.0), (1.0, 2.0), (0.0, 0.1)])
    def test_dt_too_large_for_T(self, T, dt):
        # round(T / dt) = 0 would integrate nothing and compare only t = 0
        with pytest.raises(ValueError, match="no RK4 step"):
            integrate(np.ones(3, dtype=complex), reference_params(),
                      LatticeBox(1, 1), T, dt)

    @pytest.mark.parametrize("shape", [(7, 1), (6,), (8,), ()])
    def test_u0_must_have_box_shape(self, shape):
        # the right-hand side reads u0 by the box's site count unchecked
        with pytest.raises(ValueError, match="shape"):
            integrate(np.ones(shape, dtype=complex), reference_params(),
                      LatticeBox(1, 3), 1.0, 0.1)

    @pytest.mark.parametrize("store_every", [0, -1])
    def test_store_every_must_be_positive(self, store_every):
        with pytest.raises(ValueError, match="store_every"):
            integrate(np.ones(7, dtype=complex), reference_params(),
                      LatticeBox(1, 3), 1.0, 0.1, store_every=store_every)

    def test_u0_untouched_and_states_own_their_memory(self):
        box = LatticeBox(2, 2)
        u0 = random_field(box, 41)
        before = u0.copy()
        traj = integrate(u0, d2_params(), box, T=0.05, dt=0.01)
        assert np.array_equal(u0, before)
        assert np.array_equal(traj.states[0], u0)
        assert len(traj.states) == 6
        for i, j in itertools.combinations(range(len(traj.states)), 2):
            assert not np.shares_memory(traj.states[i], traj.states[j])


class TestIntegrateParity:
    """integrate is bitwise the RK4 that reference_integrate writes out."""

    @staticmethod
    def assert_bitwise(u0, params, box, T, dt, store_every=1):
        traj = integrate(u0, params, box, T, dt, store_every=store_every)
        times, states, drift = reference_integrate(u0, params, box, T, dt,
                                                   store_every)
        # bytes, not np.array_equal, which takes -0.0 for +0.0
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()
        assert traj.norm_drift == drift

    def test_reference_solution(self):
        sol = run_solver(reference_params())
        box, u0 = reconstruct(sol, 0.0)
        self.assert_bitwise(u0, reference_params(), box, T=1.0, dt=1e-3)

    # p = 1 squares |u|; other p take np.power
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_d2(self, p):
        box = LatticeBox(2, 4)
        self.assert_bitwise(random_field(box, 37), d2_params(p), box,
                            T=0.5, dt=0.01, store_every=7)

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_linear(self, epsilon):
        box = LatticeBox(1, 5)
        self.assert_bitwise(random_field(box, 43),
                            reference_params(epsilon, 0.0), box,
                            T=0.5, dt=1e-3, store_every=3)

    @pytest.mark.parametrize("box", [LatticeBox(1, 10), LatticeBox(2, 4)])
    def test_csr_kernel_is_matmul(self, box):
        # integrate calls scipy's private CSR kernel the way csr_matrix @ x
        # does, and so does the operator's own product
        params = reference_params() if box.d == 1 else d2_params()
        L = box_operator(params, (), (box.R,) * box.d)
        x = random_field(box, 47).ravel()
        y = np.zeros(L.m, dtype=complex)
        _scipy_extension(_SPARSETOOLS).csr_matvec(
            L.m, L.m, L.indptr, L.indices, L.data, x, y)
        want = scipy_box_operator(params, box) @ x
        assert np.array_equal(y, want)
        assert np.array_equal(L @ x, want)


class TestVerify:
    def test_decoupled_deviation_is_integrator_error(self):
        sol = run_solver(reference_params(0.0, 0.0))
        rep = verify(sol, T=10.0, dt=1e-3)
        assert rep.deviation_sup <= 1e-8
        assert rep.within_budget

    def test_reference_solution_budget(self):
        sol = run_solver(reference_params())
        rep = verify(sol, T=20.0, dt=1e-3)
        assert rep.within_budget
        assert rep.norm_drift <= 1e-8

    def test_tail_stays_small(self):
        sol = run_solver(reference_params())
        rep = verify(sol, T=10.0, dt=1e-3)
        assert rep.tail_mass_max <= max(2 * rep.tail_mass_initial, 1e-20)


class TestTailMass:
    def test_counts_only_outside(self):
        box = LatticeBox(1, 3)
        u = np.zeros(box.shape, dtype=complex)
        u[box_index(box, (3,))] = 2.0
        u[box_index(box, (0,))] = 5.0
        assert tail_mass(u, box, 2) == pytest.approx(4.0)
        assert tail_mass(u, box, 3) == 0.0
