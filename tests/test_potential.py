import dataclasses
import math

import numpy as np
import pytest

from qpnls.potential import (ModelParams, TrigPoly, base_frequencies, mu,
                             reference_params, validate)


class TestValidate:
    def test_simple_cosine_passes(self):
        assert validate(TrigPoly.cosine(1)).passed

    def test_zero_component_fails(self):
        V = TrigPoly(d=2, K=1, gamma=((1, 0),), v=(1.0,))
        report = validate(V)
        assert not report.passed
        assert any("component zero" in f for f in report.failures)

    def test_opposite_pair_fails(self):
        V = TrigPoly(d=1, K=1, gamma=((1,), (-1,)), v=(1.0, 1.0))
        report = validate(V)
        assert not report.passed
        assert any("opposite pair" in f for f in report.failures)

    def test_degeneracy_proxy_note_present(self):
        report = validate(TrigPoly.cosine(2))
        assert report.passed
        assert any("proxy" in n for n in report.notes)


class TestMu:
    def test_quarter_phase_zero(self):
        V = TrigPoly.cosine(1)
        assert abs(mu(V, (0.37,), (0.25,), (0,))) < 1e-15

    def test_alpha_zero_theta_zero(self):
        V = TrigPoly.cosine(1)
        for n in (-3, 0, 5):
            assert mu(V, (0.0,), (0.0,), (n,)) == pytest.approx(1.0)

    def test_direct_evaluation_oracle(self):
        V = TrigPoly.cosine(1)
        got = mu(V, (0.4142135623,), (0.1,), (3,))
        want = math.cos(2 * math.pi * (3 * 0.4142135623 + 0.1))
        assert got == pytest.approx(want, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mu(TrigPoly.cosine(2), (0.1,), (0.2,), (1,))

    def test_periodicity_in_theta_and_alpha(self):
        rng = np.random.default_rng(11)
        V = TrigPoly(d=2, K=2, gamma=((1, 2), (2, 1)), v=(0.7, -0.4))
        for _ in range(20):
            al = rng.random(2)
            th = rng.random(2)
            n = tuple(int(c) for c in rng.integers(-4, 5, 2))
            base = mu(V, al, th, n)
            assert abs(mu(V, al, th + np.array([1, 2]), n) - base) < 1e-12
            assert abs(mu(V, al + np.array([3, 1]), th, n) - base) < 1e-12

    def test_coefficient_bound(self):
        rng = np.random.default_rng(5)
        V = TrigPoly(d=1, K=2, gamma=((1,), (2,)), v=(0.6, -1.1))
        for _ in range(50):
            val = mu(V, rng.random(1), rng.random(1),
                     (int(rng.integers(-9, 10)),))
            assert abs(val) <= sum(map(abs, V.v)) + 1e-14


class TestModelParams:
    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(V=TrigPoly.cosine(1), alpha=(0.3,), theta=(0.1,),
                        epsilon=0.0, delta=0.0, p=1,
                        sites=((0,), (0,)), a=(1.0, 1.0))

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(V=TrigPoly.cosine(1), alpha=(0.3,), theta=(0.1,),
                        epsilon=0.0, delta=0.0, p=1, sites=((0,),), a=(0.0,))

    def test_no_sites_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(V=TrigPoly.cosine(1), alpha=(0.3,), theta=(0.1,),
                        epsilon=0.0, delta=0.0, p=1, sites=(), a=())

    @pytest.mark.parametrize("field", ["alpha", "theta", "a"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(reference_params(), **{field: (value,)})

    def test_coupling_range(self):
        with pytest.raises(ValueError):
            ModelParams(V=TrigPoly.cosine(1), alpha=(0.3,), theta=(0.1,),
                        epsilon=1.5, delta=0.0, p=1, sites=((0,),), a=(1.0,))

    def test_record_round_trip(self):
        p = reference_params()
        back = ModelParams.from_record(p.to_record())
        assert back == p


class TestBaseFrequencies:
    def test_single_site_origin(self):
        p = ModelParams(V=TrigPoly.cosine(1), alpha=(0.3,), theta=(0.0,),
                        epsilon=0.0, delta=0.0, p=1, sites=((0,),), a=(1.0,))
        assert base_frequencies(p)[0] == pytest.approx(1.0)

    def test_componentwise_oracle(self):
        rng = np.random.default_rng(7)
        V = TrigPoly(d=2, K=1, gamma=((1, 1), (1, -1)), v=(0.9, 0.3))
        p = ModelParams(V=V, alpha=tuple(rng.random(2)),
                        theta=tuple(rng.random(2)), epsilon=1e-3,
                        delta=1e-3, p=1, sites=((0, 0), (2, -1)),
                        a=(1.2, 1.7))
        om = base_frequencies(p)
        for l, n in enumerate(p.sites):
            assert om[l] == pytest.approx(mu(V, p.alpha, p.theta, n))

    def test_alpha_zero_collapses(self):
        p = ModelParams(V=TrigPoly.cosine(1), alpha=(0.0,), theta=(0.13,),
                        epsilon=0.0, delta=0.0, p=1,
                        sites=((0,), (3,), (-5,)), a=(1.0, 1.2, 1.4))
        om = base_frequencies(p)
        assert np.allclose(om, om[0])
