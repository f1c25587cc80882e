import dataclasses
import itertools
import math

import numpy as np
import pytest

from qpnls.diophantine import (DiophParams, WronskianInput, _safe_abs_det,
                               _wronskian_columns, bgg_check,
                               check_dc_conditions, clustering_count,
                               estimate_excluded_measure, km_bound,
                               sublevel_measure_1d, wilson_interval,
                               wronskian_det)
from qpnls.potential import ModelParams, TrigPoly, base_frequencies, \
    reference_params


def dc_rows_oracle(params, dioph):
    """Conditions (i)-(iv) as scalar nested loops: (violations,
    indeterminate) rows in the order check_dc_conditions lists them."""
    L, thr, b = dioph.L, dioph.threshold(params), params.b
    omega0 = base_frequencies(params)
    L_min = max(1, math.ceil(math.log(1.0 / (params.epsilon
                                              + params.delta))))
    ns = list(itertools.product(range(-L, L + 1), repeat=params.d))
    mus = {n: params.mu_n(n) for n in ns}
    excited = set()
    for l, n in enumerate(params.sites):
        e = tuple(int(j == l) for j in range(b))
        excited |= {(e, n), (tuple(-c for c in e), n)}
    viol, indet = [], []
    for i, n in enumerate(ns):
        for np_ in ns[i + 1:]:
            if abs(mus[n] - mus[np_]) < thr:
                viol.append(("i", (n, np_), abs(mus[n] - mus[np_]), thr))
    for k in itertools.product(range(-2 * L, 2 * L + 1), repeat=b):
        val = abs(float(np.dot(k, omega0)))
        if any(k) and val < thr:
            viol.append(("ii", (k,), val, thr))
    for k in itertools.product(range(-L, L + 1), repeat=b):
        for n in ns:
            kw = float(np.dot(k, omega0))
            val = min(abs(kw + mus[n]), abs(-kw + mus[n]))
            floor = max(L_min, *map(abs, k), *map(abs, n)) ** -dioph.C1_exp
            if (k, n) not in excited and val < floor:
                viol.append(("iii", (k, n), val, floor))
    for k in itertools.product(range(-2 * L, 2 * L + 1), repeat=b):
        for n in ns:
            for np_ in ns:
                val = abs(float(np.dot(k, omega0)) + mus[n] - mus[np_])
                if any(k) or n != np_:
                    if val < 1e-13:
                        indet.append(("iv", (k, n, np_), val, thr))
                    elif val < thr:
                        viol.append(("iv", (k, n, np_), val, thr))
    return tuple(viol), tuple(indet)


def oracle_models():
    ref = reference_params()
    yield ref
    yield dataclasses.replace(ref, alpha=(0.0,))
    yield dataclasses.replace(ref, alpha=(1e-14,))  # |iv| in (thr, 1e-13)
    yield dataclasses.replace(ref, sites=((0,), (2,)), a=(1.5, 0.7))
    yield ModelParams(V=TrigPoly(d=2, K=1, gamma=((1, 1), (1, -1)),
                                 v=(1.0, 0.5)),
                      alpha=(0.31, 0.57), theta=(0.17, 0.4), epsilon=1e-3,
                      delta=1e-3, p=1, sites=((0, 0),), a=(1.5,))


def random_wronskian_input(rng):
    d = int(rng.integers(1, 3))
    D = int(rng.integers(1, 4))
    max_terms = 2 if d == 1 else 3
    want = min(max_terms, max(1, 9 // D))
    gamma = []
    for _ in range(300):
        if len(gamma) >= want:
            break
        l = tuple(int(c) for c in rng.integers(-2, 3, size=d))
        if all(c != 0 for c in l) and l not in gamma \
                and tuple(-c for c in l) not in gamma:
            gamma.append(l)
    V = TrigPoly(d=d, K=2, gamma=tuple(gamma),
                 v=tuple(rng.uniform(0.5, 1.5, len(gamma))))
    sites = set()
    while len(sites) < D:
        sites.add(tuple(int(c) for c in rng.integers(-3, 4, size=d)))
    return WronskianInput(
        V=V, alpha=tuple(rng.random(d)), theta=tuple(rng.random(d)),
        beta=tuple(rng.random(d)), q=tuple(rng.random(d)),
        sites=tuple(sites))


class TestKmBound:
    def test_linear_case(self):
        assert km_bound(1, 1.0, 0.01) == pytest.approx(0.04)

    def test_quadratic_constant(self):
        assert km_bound(2, 1.0, 1.0) == pytest.approx(2 * 3 * math.sqrt(6))

    def test_monotone_to_zero(self):
        vals = [km_bound(3, 2.0, e) for e in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1


class TestSublevelMeasure:
    def test_identity_function(self):
        x = np.linspace(0, 1, 4001)
        assert sublevel_measure_1d(x, (0, 1), 0.25) == pytest.approx(
            0.25, abs=2e-3)

    def test_square(self):
        x = np.linspace(-1, 1, 8001)
        assert sublevel_measure_1d(x ** 2, (-1, 1), 0.04) == pytest.approx(
            0.4, abs=2e-3)

    def test_constant_one(self):
        f = np.ones(2000)
        assert sublevel_measure_1d(f, (0, 1), 0.5) == 0.0

    def test_km_dominates_monomials(self):
        # |f^(k)| = k! for f = x^k on [0,1]
        x = np.linspace(0, 1, 20001)
        for k in range(1, 5):
            f = x ** k
            for eps in np.geomspace(1e-6, 1e-1, 10):
                measured = sublevel_measure_1d(f, (0, 1), eps)
                assert measured <= km_bound(k, math.factorial(k), eps) + 1e-3

    def test_km_dominates_chebyshev(self):
        # T_3(x) = 4x^3 - 3x has |T_3'''| = 24 everywhere
        x = np.linspace(-1, 1, 20001)
        f = 4 * x ** 3 - 3 * x
        for eps in (1e-4, 1e-2):
            measured = sublevel_measure_1d(f, (-1, 1), eps)
            assert measured <= km_bound(3, 24.0, eps) + 1e-3


class TestWronskian:
    def test_one_by_one(self):
        V = TrigPoly.cosine(1)
        inp = WronskianInput(V=V, alpha=(0.31,), theta=(0.12,), beta=(0.6,),
                             q=(0.27,), sites=((2,),))
        direct, factored = wronskian_det(inp)
        lam2 = (2 * math.pi * (2 * 0.6 + 0.27)) ** 2
        want = lam2 * abs(math.cos(2 * math.pi * (0.12 + 2 * 0.31)))
        assert direct == pytest.approx(want, rel=1e-12)
        assert factored == pytest.approx(want, rel=1e-12)

    def test_identity_random(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            inp = random_wronskian_input(rng)
            direct, factored = wronskian_det(inp)
            assert direct == pytest.approx(factored, rel=1e-8, abs=1e-280)

    def test_columns_match_site_major_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            inp = random_wronskian_input(rng)
            xs, coss = [], []
            for n in inp.sites:
                for l in inp.V.gamma:
                    xs.append(sum(l[j] * n[j] * inp.beta[j] + inp.q[j] * l[j]
                                  for j in range(inp.V.d)))
                    coss.append(math.cos(2 * math.pi * sum(
                        l[j] * (inp.theta[j] + n[j] * inp.alpha[j])
                        for j in range(inp.V.d))))
            got_xs, got_coss = _wronskian_columns(inp)
            np.testing.assert_allclose(got_xs, xs, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(got_coss, coss, rtol=0, atol=1e-13)

    def test_common_cosine_zero(self):
        V = TrigPoly.cosine(1)
        # theta chosen so theta + n * alpha = 1/4 at n = 0
        inp = WronskianInput(V=V, alpha=(0.3,), theta=(0.25,), beta=(0.4,),
                             q=(0.2,), sites=((0,),))
        direct, factored = wronskian_det(inp)
        assert direct == pytest.approx(0.0, abs=1e-12)
        assert factored == pytest.approx(0.0, abs=1e-12)

    def test_ill_conditioned_det_in_extended_precision(self):
        # Condition number 1e13 is above the LU cutoff of 1e12, so the
        # determinant comes from the mpmath branch; on a diagonal matrix it
        # is exact.
        assert _safe_abs_det(np.diag([1.0, 1e-13])) == 1e-13

    def test_size_cap(self):
        V = TrigPoly(d=2, K=2, gamma=((1, 1), (1, -1), (2, 1)),
                     v=(1.0, 1.0, 1.0), phases=(0.0, 0.0, 0.0))
        sites = tuple((i, 0) for i in range(5))
        inp = WronskianInput(V=V, alpha=(0.1, 0.2), theta=(0.3, 0.4),
                             beta=(0.5, 0.6), q=(0.7, 0.8), sites=sites)
        with pytest.raises(ValueError):
            wronskian_det(inp)


class TestBgg:
    def test_scalar_case(self):
        lhs, rhs, holds = bgg_check([[3.0]], [2.0])
        assert lhs == pytest.approx(6.0)
        assert holds

    def test_standard_basis(self):
        lhs, rhs, holds = bgg_check([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(2 ** -1.5 * math.sqrt(2))
        assert holds

    def test_randomized_sweep(self):
        rng = np.random.default_rng(202)
        done = 0
        while done < 300:
            r = int(rng.integers(1, 6))
            V = rng.integers(-5, 6, size=(r, r)).astype(float)
            if abs(np.linalg.det(V)) < 1e-12:
                continue
            _, _, holds = bgg_check(V, rng.standard_normal(r))
            assert holds
            done += 1

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            bgg_check([[1.0, 2.0], [2.0, 4.0]], [1.0, 0.0])


class TestDcConditions:
    def test_alpha_zero_fails_pairwise(self):
        p = ModelParams(V=TrigPoly.cosine(1), alpha=(0.0,), theta=(0.17,),
                        epsilon=1e-3, delta=1e-3, p=1, sites=((0,),),
                        a=(1.5,))
        report = check_dc_conditions(p, DiophParams(L=2))
        pair_fails = report.by_condition("i")
        n_vals = 5  # |n| <= 2
        assert len(pair_fails) == n_vals * (n_vals - 1) // 2

    def test_small_scale_brute_force(self):
        p = reference_params()
        dioph = DiophParams(L=3, threshold_exp=3.0)
        report = check_dc_conditions(p, dioph)
        # independent scalar recomputation of condition (ii)
        om = base_frequencies(p)[0]
        thr = (p.epsilon + p.delta) ** 3
        want = sorted((k,) for k in range(-6, 7)
                      if k != 0 and abs(k * om) < thr)
        got = sorted(v[1][0] for v in report.by_condition("ii"))
        assert got == want

    @pytest.mark.parametrize("params", list(oracle_models()),
                             ids=["b1d1", "b1d1-alpha0", "b1d1-alpha1e-14",
                                  "b2d1", "b1d2"])
    @pytest.mark.parametrize("threshold_exp, C1_exp",
                             [(None, 8.0), (0.2, 0.5), (3.0, 8.0),
                              (6.0, 8.0)])
    def test_rows_match_scalar_oracle(self, params, threshold_exp, C1_exp):
        dioph = DiophParams(L=2, C1_exp=C1_exp, threshold_exp=threshold_exp)
        report = check_dc_conditions(params, dioph)
        want = dc_rows_oracle(params, dioph)
        assert repr((report.violations, report.indeterminate)) == repr(want)

    def test_oracle_cases_cover_every_row_kind(self):
        kinds = set()
        for params in oracle_models():
            for te, c1 in ((0.2, 0.5), (6.0, 8.0)):
                viol, indet = dc_rows_oracle(
                    params, DiophParams(L=2, C1_exp=c1, threshold_exp=te))
                kinds |= {row[0] for row in viol}
                kinds |= {"indeterminate"} if indet else set()
        assert kinds == {"i", "ii", "iii", "iv", "indeterminate"}

    def test_identically_zero_rows_excluded(self):
        p = reference_params()
        report = check_dc_conditions(p, DiophParams(L=2, threshold_exp=3.0))
        for v in report.by_condition("iv"):
            k, n, np_ = v[1]
            assert not (all(c == 0 for c in k) and n == np_)


class TestClustering:
    def test_zero_threshold(self):
        count, wit = clustering_count(reference_params(), 0.3, 3, 0.0)
        assert count == 0 and wit == []

    def test_huge_sigma(self):
        p = reference_params()
        om = abs(base_frequencies(p)[0])
        sigma = 3 * om + sum(map(abs, p.V.v)) + 5.0
        count, _ = clustering_count(p, sigma, 3, 0.05)
        assert count == 0

    def test_monotone_in_threshold(self):
        p = reference_params()
        counts = [clustering_count(p, 0.11, 4, t)[0]
                  for t in (0.0, 0.01, 0.05, 0.2, 1.0)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_witness_values_below_threshold(self):
        p = reference_params()
        count, wit = clustering_count(p, 0.07, 4, 0.1)
        assert len(wit) >= count
        for k, n, xi, val in wit:
            assert val < 0.1


class TestExcludedMeasure:
    def test_always_true(self):
        frac, (lo, hi) = estimate_excluded_measure(
            "always_true", reference_params(), 1000, 9)
        assert frac == 0.0 and lo == 0.0

    def test_cosine_sublevel_closed_form(self):
        # measure of {|cos 2 pi theta| <= eta} is (2/pi) arcsin(eta)
        frac, (lo, hi) = estimate_excluded_measure(
            "potential_sublevel", reference_params(), 20000, 42, eta=0.1)
        exact = 2.0 / math.pi * math.asin(0.1)
        assert lo <= exact <= hi

    def test_deterministic_for_seed(self):
        a = estimate_excluded_measure("potential_sublevel",
                                      reference_params(), 2000, 77, eta=0.05)
        b = estimate_excluded_measure("potential_sublevel",
                                      reference_params(), 2000, 77, eta=0.05)
        assert a == b

    def test_monotone_in_eta(self):
        fracs = [estimate_excluded_measure(
            "potential_sublevel", reference_params(), 5000, 3, eta=eta)[0]
            for eta in (0.01, 0.05, 0.2)]
        assert fracs[0] <= fracs[1] <= fracs[2]

    def test_dc_ii_grid_oracle(self):
        p = reference_params()
        thr = 0.05
        frac, (lo, hi) = estimate_excluded_measure(
            "dc_ii", p, 5000, 13, L=4, threshold=thr)
        # dense-grid oracle: for b = 1 and n1 = 0 the predicate depends on
        # theta only, through omega0 = V(theta)
        grid = np.linspace(0, 1, 401, endpoint=False)
        fails = 0
        for th in grid:
            om = math.cos(2 * math.pi * th)
            if any(abs(k * om) < thr for k in range(-8, 9) if k != 0):
                fails += 1
        assert lo - 0.02 <= fails / grid.size <= hi + 0.02

    def test_dc_ii_b2_d2_matches_per_sample_loop(self):
        p = ModelParams(V=TrigPoly(d=2, K=1, gamma=((1, 1), (1, -1)),
                                   v=(1.0, 0.5)),
                        alpha=(0.3, 0.7), theta=(0.1, 0.2), epsilon=0.01,
                        delta=0.01, p=1, sites=((0, 0), (1, -1)),
                        a=(1.0, 2.0))
        n_samples, L, thr = 2000, 2, 0.02
        got = estimate_excluded_measure("dc_ii", p, n_samples, 21, L=L,
                                        threshold=thr)
        draws = np.random.Generator(np.random.Philox(key=21)).random(
            (n_samples, 4))
        ks = [k for k in itertools.product(range(-2 * L, 2 * L + 1),
                                           repeat=2) if any(k)]
        fails = 0
        for row in draws:
            q = dataclasses.replace(p, alpha=tuple(row[:2]),
                                    theta=tuple(row[2:]))
            om = base_frequencies(q)
            fails += any(abs(float(np.dot(k, om))) < thr for k in ks)
        assert 0 < fails < n_samples
        assert got == (fails / n_samples, wilson_interval(fails, n_samples))

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            estimate_excluded_measure("nope", reference_params(), 1000, 1)


class TestWilson:
    def test_interval_contains_phat(self):
        lo, hi = wilson_interval(50, 1000)
        assert lo < 0.05 < hi

    def test_degenerate(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and hi < 0.01
