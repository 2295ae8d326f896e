"""Analytic Jacobians of the least-squares models, the fits they drive,
the solver's model contract, the root finder and the faults of both
solvers.

Each fit's model, the one function that returns its residuals and
Jacobian, is taken from the `run_least_squares` call it makes, so the
checks see exactly the function the fit uses.
scipy's least_squares, converged at 1e-15, is the test-only oracle for
where each fit should land, and scipy's brentq at find_root's tolerances
the oracle for each root, to the bit.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq, least_squares

from qnl import ddfilter, decayfit, fitutil, spectro
from qnl.units import TWO_PI

from conftest import make_cpmg, make_ramsey, make_relaxation

CAVITY = spectro.CavityQubitParams(f_r=5.668e9, kappa=TWO_PI * 0.38e6,
                                   f_q=5.668e9, gamma=TWO_PI * 3.18e6,
                                   g=TWO_PI * 5e6)
DISPERSION = spectro.QubitDispersion(f_ss=5.065e9, lever_c=2.348e12)


def _transmission_trace():
    freqs = np.linspace(5.653e9, 5.683e9, 201)
    amps = (np.abs(spectro.transmission(CAVITY, freqs))
            + 0.005 * np.random.default_rng(0).normal(size=freqs.size))
    return np.column_stack((freqs, amps))


def _dispersion_points():
    volts = np.linspace(-1e-3, 1e-3, 11)
    return np.column_stack((volts, spectro.qubit_frequency(DISPERSION, volts)))


MODEL_NAMES = ("exponential", "ramsey", "cpmg", "dispersion", "transmission")


def _fit_with_each_model(monkeypatch, solver):
    """Run one fit of each model, in MODEL_NAMES order, with
    solver(real_solver, model, x0, bounds) in place of run_least_squares."""
    for module in (decayfit, spectro):
        def run(model, x0, bounds, real=module.run_least_squares):
            return solver(real, model, x0, bounds)
        monkeypatch.setattr(module, "run_least_squares", run)
    cpmg_from_zero = make_cpmg(4, t_phi=5e-6, stretch=2.0)
    cpmg_from_zero = decayfit.DecayTrace(
        times=cpmg_from_zero.times - cpmg_from_zero.times[0],
        populations=cpmg_from_zero.populations, kind="cpmg", n_pulses=4)
    decayfit.fit_relaxation(make_relaxation(noise=0.01, seed=1))
    decayfit.fit_ramsey(make_ramsey(noise=0.01, seed=2))
    decayfit.fit_cpmg(cpmg_from_zero, t1=11.94e-6)
    spectro.fit_dispersion(_dispersion_points())
    spectro.fit_transmission(_transmission_trace(),
                             {"f_r": CAVITY.f_r, "kappa": CAVITY.kappa})


def _models(monkeypatch):
    """{name: model} of every least-squares model, each captured from one
    fit of its kind."""
    captured = []

    def capture(real, model, x0, bounds):
        captured.append(model)
        return real(model, x0, bounds)
    _fit_with_each_model(monkeypatch, capture)
    assert len(captured) == len(MODEL_NAMES)
    return dict(zip(MODEL_NAMES, captured))


def test_solver_calls_the_model_once_per_evaluation(monkeypatch):
    # one model call gives a trial's residuals and Jacobian, and the
    # solver keeps an accepted trial's Jacobian instead of calling the
    # model again at that point; a fit on seed 1's traces ends on a
    # rejected trial, whose Jacobian the result must not carry
    runs = []

    def count(real, model, x0, bounds):
        calls = []

        def counted(p):
            calls.append(p)
            return model(p)
        result = real(counted, x0, bounds)
        runs.append((model, calls, result))
        return result
    _fit_with_each_model(monkeypatch, count)
    _decay_times(1)
    assert len(runs) == len(MODEL_NAMES) + 6 * 7
    assert any(not np.array_equal(calls[-1], result.x)
               for _, calls, result in runs)
    for k, (model, calls, result) in enumerate(runs):
        assert len(calls) == result.nfev, k
        jac = model(result.x)[1]
        assert result.jac.shape == jac.shape, k
        assert result.jac.tobytes() == jac.tobytes(), k


def _central_differences(residual, p):
    """Central-difference Jacobian, step 1e-7 of max(|p_j|, 1e-3)."""
    columns = []
    for j, step in enumerate(1e-7 * np.maximum(np.abs(p), 1e-3)):
        up, down = p.copy(), p.copy()
        up[j] += step
        down[j] -= step
        columns.append((residual(up) - residual(down)) / (up[j] - down[j]))
    return np.column_stack(columns)


# per model: parameters at which the Jacobian is checked, as
# centre * (1 + spread * u) with u uniform in [-1, 1]
PARAMETERS = {
    "exponential": ([0.05, 0.9, 11.6e-6], [1.0, 0.3, 0.5]),
    "ramsey": ([0.5, 0.45, 8.2e-6, 0.5e6, 1.0], [0.2, 0.3, 0.5, 0.2, 2.0]),
    "cpmg": ([0.5, 0.45, 5e-6, 2.0], [0.2, 0.3, 0.5, 0.5]),
    "dispersion": ([5.065e9, 2.348e12, 2e-4], [1e-3, 0.3, 1.5]),
    "transmission": ([CAVITY.g, CAVITY.gamma, CAVITY.f_r],
                     [0.5, 0.5, 1e-3]),
}


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_jacobian_matches_central_differences(monkeypatch, name):
    model = _models(monkeypatch)[name]
    centre, spread = map(np.asarray, PARAMETERS[name])
    rng = np.random.default_rng(sorted(PARAMETERS).index(name))
    points = [centre * (1.0 + spread * rng.uniform(-1.0, 1.0, centre.size))
              for _ in range(5)]
    if name == "transmission":
        points.append(np.array([0.0, CAVITY.gamma, CAVITY.f_r]))
    for p in points:
        analytic = model(p)[1]
        numeric = _central_differences(lambda q: model(q)[0], p)
        assert analytic.shape == numeric.shape
        for j in range(p.size):
            assert np.all(np.isfinite(analytic[:, j]))
            assert np.linalg.norm(analytic[:, j] - numeric[:, j]) <= \
                1e-6 * np.linalg.norm(analytic[:, j]), (name, p, j)


def _converged_run_least_squares(model, x0, bounds):
    result = least_squares(lambda p: model(p)[0],
                           np.asarray(x0, dtype=float),
                           jac=lambda p: model(p)[1], bounds=bounds,
                           x_scale="jac", ftol=1e-15, xtol=1e-15, gtol=1e-15,
                           max_nfev=10000)
    assert result.status > 0, result.message
    return result


def _pipeline_style_traces(seed):
    """Per bias point, (relaxation, Ramsey, [CPMG N = 1, 2, 4, 8, 16]) drawn
    as perfbench's write_pipeline_dataset draws them from its seed."""
    rng = np.random.default_rng(seed)

    def clip(p):
        return np.clip(p, -0.1, 1.1)
    for _ in range(6):
        t1, t2, t0 = (base * rng.uniform(0.9, 1.1)
                      for base in (11.6e-6, 8.2e-6, 4e-6))
        t = np.linspace(0.02 * t1, 5.0 * t1, 48)
        relax = decayfit.DecayTrace(
            t, clip(0.05 + 0.9 * np.exp(-t / t1)
                    + 0.01 * rng.standard_normal(t.size)), "relaxation")
        t = np.linspace(0.0, 3.0 * t2, 240)
        ramsey = decayfit.DecayTrace(
            t, clip(0.5 + 0.45 * np.exp(-t / t2) * np.cos(TWO_PI * 0.5e6 * t)
                    + 0.01 * rng.standard_normal(t.size)), "ramsey")
        cpmg = []
        for n in (1, 2, 4, 8, 16):
            t_phi = t0 * n ** 0.61
            t = np.linspace(0.05 * t_phi, 2.5 * t_phi, 40)
            cpmg.append(decayfit.DecayTrace(
                t, clip(0.5 + 0.45 * np.exp(-t / (2.0 * t1))
                        * np.exp(-(t / t_phi) ** 2)
                        + 0.008 * rng.standard_normal(t.size)),
                "echo" if n == 1 else "cpmg", n))
        yield relax, ramsey, cpmg


def _decay_times(seed):
    """Rows of fitted (T1, T2, T_phi x 5), CPMG with the fitted T1."""
    rows = []
    for relax, ramsey, cpmg in _pipeline_style_traces(seed):
        t1 = decayfit.fit_relaxation(relax).t1
        rows.append([t1, decayfit.fit_ramsey(ramsey).t2]
                    + [decayfit.fit_cpmg(trace, t1).t_phi for trace in cpmg])
    return np.array(rows)


def _spectro_fits():
    """(g, gamma, f_q) of the transmission fit, then (f_ss, lever_c, v_ss)
    of the dispersion fit on the points with 2 MHz of noise: the noiseless
    points start the fit at its exact minimum."""
    fit = spectro.fit_transmission(_transmission_trace(),
                                   {"f_r": CAVITY.f_r, "kappa": CAVITY.kappa})
    points = _dispersion_points()
    points[:, 1] += 2e6 * np.random.default_rng(3).normal(size=len(points))
    disp = spectro.fit_dispersion(points)
    return np.array([fit["g"], fit["gamma"], fit["f_q"],
                     disp["f_ss"], disp["lever_c"], disp["v_ss"]])


def test_fits_are_close_to_the_converged_minimum(monkeypatch):
    seeds = range(10)
    fitted = np.array([_decay_times(seed) for seed in seeds])
    fitted_spectro = _spectro_fits()
    for module in (decayfit, spectro):
        monkeypatch.setattr(module, "run_least_squares",
                            _converged_run_least_squares)
    converged = np.array([_decay_times(seed) for seed in seeds])
    converged_spectro = _spectro_fits()
    # measured over seeds 0-19: T1 3.7e-9, T2 5.4e-9, T_phi 1.34e-8
    rel = np.abs(fitted / converged - 1.0)
    assert rel[..., 0].max() <= 1e-7          # T1
    assert rel[..., 1].max() <= 1e-7          # T2
    assert rel[..., 2:].max() <= 1e-7         # T_phi
    # measured: 1.4e-9 (gamma), and v_ss 1.3e-15 V apart; v_ss, whose
    # minimum lies near 0, is compared on the scale of the 2 mV bias span
    rel = np.abs(fitted_spectro / converged_spectro - 1.0)
    assert rel[:5].max() <= 1e-8
    assert abs(fitted_spectro[5] - converged_spectro[5]) <= 1e-8 * 2e-3


def _stretched(trace, factor):
    return decayfit.DecayTrace(times=trace.times * factor,
                               populations=trace.populations,
                               kind=trace.kind, n_pulses=trace.n_pulses)


# the power of the input axis (time, or volts for the dispersion) in each
# fitted parameter's unit
AXIS_POWER = {"offset": 0, "amplitude": 0, "t1": 1, "t2": 1, "t_phi": 1,
              "stretch": 0, "detuning": -1, "phase": 0,
              "f_ss": 0, "lever_c": -1, "v_ss": 1}


@pytest.mark.parametrize("seed", range(5))
def test_errors_carry_their_parameters_units(seed):
    # an input axis 4 times as long is exact in floats and so is each step
    # of a fit on it: every value and error comes back scaled by 4 to the
    # power of its unit, which a names tuple that swaps two parameters of
    # different units would break
    fits = {
        "relaxation": lambda k: decayfit.fit_relaxation(_stretched(
            make_relaxation(noise=0.01, seed=seed), k)),
        "ramsey": lambda k: decayfit.fit_ramsey(_stretched(
            make_ramsey(noise=0.01, seed=seed), k)),
        "no_oscillation": lambda k: decayfit.fit_ramsey(_stretched(
            make_ramsey(detuning=0.0, noise=0.01, seed=seed), k)),
        "cpmg": lambda k: decayfit.fit_cpmg(_stretched(
            make_cpmg(4, noise=0.008, seed=seed), k), 11.94e-6 * k),
    }
    points = _dispersion_points()
    points[:, 1] += 2e6 * np.random.default_rng(seed).normal(
        size=len(points))
    for name, fit in fits.items():
        base, scaled = fit(1.0), fit(4.0)
        assert ("no_oscillation" in base.flags) == (name == "no_oscillation")
        assert len(base.errors) >= 3
        for key, error in base.errors.items():
            factor = 4.0 ** AXIS_POWER[key]
            assert scaled.errors[key] == error * factor, (name, key)
            assert getattr(scaled, key) == getattr(base, key) * factor
    base = spectro.fit_dispersion(points)
    scaled = spectro.fit_dispersion(points * [4.0, 1.0])
    for key, error in base["stderr"].items():
        factor = 4.0 ** AXIS_POWER[key]
        assert scaled["stderr"][key] == error * factor, key
        assert scaled[key] == base[key] * factor, key


def test_unconverged_fit_is_a_fit_error():
    # |exp(-p)| falls by the same share at every step, so no stopping test
    # is met before the cap of 100 residual evaluations per parameter
    calls = []

    def model(p):
        calls.append(p)
        return np.exp(-p), -np.exp(-p)[:, None]
    with pytest.raises(fitutil.FitError,
                       match="least-squares did not converge: 100 residual "
                             "evaluations used up"):
        fitutil.run_least_squares(model, [0.0], ([-np.inf], [np.inf]))
    assert len(calls) == 100


def test_infeasible_start_is_a_value_error():
    with pytest.raises(ValueError, match="infeasible"):
        fitutil.run_least_squares(lambda p: (p, np.eye(1)), [2.0],
                                  ([0.0], [1.0]))


def test_non_finite_residuals_at_the_start_are_a_value_error():
    with pytest.raises(ValueError, match="not finite at x0"):
        fitutil.run_least_squares(
            lambda p: (np.log(p - 1.0), np.eye(1) / (p - 1.0)), [0.5],
            (-np.inf, np.inf))


def _covariances(jac, rng):
    """fitutil.covariance of a result holding jac, and the np.linalg.pinv
    covariance it stands for, both in the equilibrated parameters
    p_j |J_j|."""
    n, p = jac.shape
    result = fitutil.LeastSquaresResult(
        x=np.zeros(p), fun=rng.normal(size=n), jac=jac,
        cost=float(rng.uniform(0.1, 10.0)), nfev=1, status=1,
        optimality=0.0)
    scale = np.linalg.norm(jac, axis=0)
    scale[scale == 0.0] = 1.0
    jtj = (jac / scale).T @ (jac / scale)
    s_sq = 2.0 * result.cost / max(n - p, 1)
    return (fitutil.covariance(result) * np.outer(scale, scale),
            np.linalg.pinv(jtj) * s_sq)


def _assert_within_1e12(cov, ref):
    np.testing.assert_allclose(cov, ref, rtol=0.0,
                               atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("seed", range(20))
def test_covariance_is_the_equilibrated_pinv(seed):
    # columns of wildly different magnitude, as Hz beside V
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(6, 60)), int(rng.integers(1, 6))
    jac = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-8, 8, size=p)
    _assert_within_1e12(*_covariances(jac, rng))


@pytest.mark.parametrize("seed", range(5))
def test_covariance_of_an_unconstrained_direction(seed):
    # a zero column has zero variance; a duplicated column leaves one
    # direction unconstrained, which pinv drops and so must covariance
    rng = np.random.default_rng(seed)
    jac = rng.normal(size=(40, 4)) * [1e-3, 1.0, 1e6, 1.0]
    zero = jac.copy()
    zero[:, 2] = 0.0
    cov, ref = _covariances(zero, rng)
    assert cov[2].tolist() == [0.0] * 4 and cov[:, 2].tolist() == [0.0] * 4
    _assert_within_1e12(cov, ref)
    duplicated = jac.copy()
    duplicated[:, 3] = duplicated[:, 1]
    _assert_within_1e12(*_covariances(duplicated, rng))


def test_covariance_keeps_a_poorly_constrained_direction():
    # two unit columns 1e-5 rad apart: the equilibrated J^T J has
    # eigenvalues 1 +- cos(1e-5), the smaller 5e-11, far above pinv's
    # cutoff, so its direction keeps a variance about 1e10 times the
    # other's; a condition number of 4e10 leaves both inverses good to
    # about 1e-5
    rng = np.random.default_rng(0)
    u, v = np.linalg.qr(rng.normal(size=(30, 2)))[0].T
    jac = np.column_stack((u, math.cos(1e-5) * u + math.sin(1e-5) * v))
    np.testing.assert_allclose(*_covariances(jac * [1e-3, 1e6], rng),
                               rtol=1e-4)


def _root_problems(monkeypatch):
    """(f, lo, hi) of every find_root call that first_harmonic_peak and
    t2_from_dephasing make on a spread of inputs; the peak memo is
    emptied first, so that every peak is searched here."""
    ddfilter._harmonic_roots.cache_clear()
    captured = []

    def capture(f, lo, hi):
        captured.append((f, lo, hi))
        return fitutil.find_root(f, lo, hi)
    for module in (ddfilter, decayfit):
        monkeypatch.setattr(module, "find_root", capture)
    for n in (1, 2, 3, 8, 64, 256):
        for share in (0.0, 0.5, 0.99):    # of tau spent in the pulses
            ddfilter.first_harmonic_peak(ddfilter.PulseSequence(
                n_pulses=n, tau=3.7e-5, tau_pi=share * 3.7e-5 / n))
    rng = np.random.default_rng(0)
    for t1, t_phi, stretch in zip(10.0 ** rng.uniform(-7, -2, 100),
                                  10.0 ** rng.uniform(-7, -2, 100),
                                  rng.uniform(*decayfit.STRETCH_BOUNDS, 100)):
        decayfit.t2_from_dephasing(t1, t_phi, stretch)
    decayfit.t2_from_dephasing(np.inf, 1e-5, 2.0)
    decayfit.t2_from_dephasing(1e-5, np.inf, 2.0)
    assert len(captured) == 18 * 3 + 102
    return captured


SMOOTH = [(lambda x: math.cos(x) - x, 0.0, 1.0),
          (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
          (lambda x: math.exp(x) - 10.0, -5.0, 10.0),
          (lambda x: math.atan(x - 0.3), -1e3, 1e5),
          (lambda x: x * x - 2.0, 0.0, 2.0),
          # the inverse-quadratic denominator underflows to 0, where C
          # takes an infinite step and so bisects
          (lambda x: 1e-300 * (x ** 3 - 2.0 * x - 5.0), 2.0, 3.0)]


def test_find_root_is_brentq_to_the_bit(monkeypatch):
    tol = {"xtol": 1e-300, "rtol": 4.0 * np.finfo(float).eps}
    for f, lo, hi in _root_problems(monkeypatch) + SMOOTH:
        root = fitutil.find_root(f, lo, hi)
        assert root.hex() == float(brentq(f, lo, hi, **tol)).hex()


@pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (0.0, 1.0)])
def test_an_end_where_f_is_zero_is_the_root(lo, hi):
    assert fitutil.find_root(lambda x: x - 1.0, lo, hi) == 1.0


def test_a_bracket_without_a_sign_change_is_a_value_error():
    with pytest.raises(ValueError, match="same sign"):
        fitutil.find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_a_nan_value_is_a_value_error():
    # |f| is the same at both ends, so the first step bisects to 0.5
    with pytest.raises(ValueError, match=r"f\(0\.5\) is NaN"):
        fitutil.find_root(lambda x: math.nan if x == 0.5 else x - 0.5,
                          0.0, 1.0)


def test_unconverged_root_is_a_fit_error():
    # every step from the sign change at 1e-300 toward 1e300 bisects, and
    # 100 halvings of 1e300 do not reach the relative tolerance
    def step(x):
        return -1.0 if x < 1e-300 else 1.0
    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(step, 0.0, 1e300, xtol=1e-300,
               rtol=4.0 * np.finfo(float).eps)
    with pytest.raises(fitutil.FitError,
                       match="root finding did not converge: 100 "
                             "iterations used up"):
        fitutil.find_root(step, 0.0, 1e300)
