import warnings

import numpy as np
import pytest
from scipy.constants import h, k

from qnl.thermal import (ThermalModel, electron_temperature,
                         photon_occupation, resonator_dephasing,
                         t1_vs_temperature, thermal_population)


def model(**overrides):
    params = dict(f_q=5.065e9, f_r=5.668e9, kappa=2 * np.pi * 0.38e6,
                  chi=-2 * np.pi * 0.06e6, t1_zero=3.16e-3)
    params.update(overrides)
    return ThermalModel(**params)


class TestT1VsTemperature:
    def test_zero_temperature_limit(self):
        m = model()
        assert t1_vs_temperature(m, 0.0) == m.t1_zero

    def test_200mk_pin(self):
        m = model(t1_zero=1.0)
        ratio = t1_vs_temperature(m, 0.2)
        assert ratio == pytest.approx(0.543, rel=0.01)
        assert 0.50 <= ratio <= 0.58

    def test_tanh_unity_argument(self):
        m = model(t1_zero=1.0)
        t_star = h * m.f_q / (2 * k)
        assert t1_vs_temperature(m, t_star) == pytest.approx(np.tanh(1.0),
                                                             rel=1e-12)

    def test_monotone_decreasing(self):
        m = model()
        temps = np.linspace(0.01, 0.5, 40)
        values = t1_vs_temperature(m, temps)
        assert np.all(np.diff(values) < 0)


class TestThermalPopulation:
    def test_zero_temperature(self):
        assert thermal_population(5.065e9, 0.0) == 0.0

    def test_characteristic_temperature(self):
        t_star = h * 5.065e9 / k
        assert thermal_population(5.065e9, t_star) == pytest.approx(
            1.0 / (1.0 + np.e), rel=1e-12)

    def test_high_temperature_limit(self):
        assert thermal_population(5.065e9, 1e6) == pytest.approx(0.5,
                                                                 abs=1e-6)

    def test_bounded_below_half(self):
        temps = np.geomspace(1e-3, 1e3, 50)
        p = thermal_population(5.065e9, temps)
        assert np.all(p >= 0) and np.all(p < 0.5)


def test_deep_cold_limit_is_silent():
    # h f/k T ~ 2400 at 5 GHz and 0.1 mK: exp(x) would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for temp in (1e-4, np.array([0.0, 1e-4, 1e-2, 1.0])):
            p_e = thermal_population(5e9, temp)
            n_th = photon_occupation(5e9, temp)
            assert np.all(np.isfinite(p_e)) and np.all(np.isfinite(n_th))
        assert thermal_population(5e9, 1e-4) == 0.0
        assert photon_occupation(5e9, 1e-4) == 0.0


class TestElectronTemperature:
    def test_inversion_pin(self):
        p_e = 1.0 / (1.0 + np.e)
        t = electron_temperature(p_e, 5.065e9)
        assert t == pytest.approx(h * 5.065e9 / k, rel=1e-12)
        assert t == pytest.approx(0.243, rel=0.01)

    def test_inverse_pair(self):
        for p in (0.01, 0.1, 0.4):
            back = thermal_population(5.065e9,
                                      electron_temperature(p, 5.065e9))
            assert back == pytest.approx(p, rel=1e-12)

    def test_small_population_small_temperature(self):
        assert electron_temperature(1e-12, 5.065e9) < \
            electron_temperature(1e-3, 5.065e9) < 0.05

    def test_domain(self):
        with pytest.raises(ValueError):
            electron_temperature(0.0, 5.065e9)
        with pytest.raises(ValueError):
            electron_temperature(0.5, 5.065e9)


class TestPhotonOccupation:
    def test_zero_temperature(self):
        assert photon_occupation(5.668e9, 0.0) == 0.0

    def test_characteristic_temperature(self):
        t_star = h * 5.668e9 / k
        assert photon_occupation(5.668e9, t_star) == pytest.approx(
            1.0 / (np.e - 1.0), rel=1e-12)
        assert t_star == pytest.approx(0.272, rel=0.01)

    def test_rayleigh_jeans_limit(self):
        f_r = 5.668e9
        temp = 50 * h * f_r / k
        assert photon_occupation(f_r, temp) == pytest.approx(
            k * temp / (h * f_r), rel=0.01)


class TestResonatorDephasing:
    def test_zero_occupation_exact(self):
        assert resonator_dephasing(model(), 0.0) == 0.0

    def test_200mk_pin(self):
        # independent complex-arithmetic recomputation
        m = model()
        n_th = photon_occupation(m.f_r, 0.2)
        ratio = 2.0 * m.chi / m.kappa
        inner = (1.0 + 1j * ratio) ** 2 + 4j * ratio * n_th
        expected = 0.5 * m.kappa * (np.sqrt(inner).real - 1.0)
        rate = resonator_dephasing(m, n_th)
        assert rate == pytest.approx(expected, rel=1e-12)
        assert rate == pytest.approx(8.5e4, rel=0.02)
        assert 1.0 / rate == pytest.approx(12e-6, rel=0.05)

    def test_small_chi_expansion(self):
        # Gamma -> 4 chi^2 n(n+1) / kappa when chi << kappa
        kappa = 2 * np.pi * 1e6
        chi = 0.01 * kappa
        m = model(kappa=kappa, chi=chi)
        for n_th in (0.05, 0.3, 1.0):
            expansion = 4.0 * chi ** 2 * n_th * (n_th + 1.0) / kappa
            assert resonator_dephasing(m, n_th) == pytest.approx(
                expansion, rel=0.01)

    def test_monotone_in_occupation(self):
        m = model()
        n = np.linspace(0.0, 2.0, 30)
        rates = resonator_dephasing(m, n)
        assert np.all(np.diff(rates) > 0)

    def test_sign_of_chi_irrelevant(self):
        m_plus = model(chi=2 * np.pi * 0.06e6)
        m_minus = model(chi=-2 * np.pi * 0.06e6)
        assert resonator_dephasing(m_plus, 0.4) == pytest.approx(
            resonator_dephasing(m_minus, 0.4), rel=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        model(kappa=0.0)
    with pytest.raises(ValueError):
        model(f_q=-5e9)
