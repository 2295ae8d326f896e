"""Analytic Jacobians of the least-squares models and the fits they drive.

Each fit's residual and Jacobian are taken from the `run_least_squares`
call it makes, so the checks see exactly the functions the fit uses.
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.optimize._numdiff import approx_derivative

from qnl import decayfit, fitutil, spectro
from qnl.fileio import SPECTRUM_HEADER, TWO_TONE_HEADER, format_csv
from qnl.pipeline import AnalysisConfig, run_pipeline
from qnl.units import TWO_PI

from conftest import make_cpmg, make_ramsey, make_relaxation, q1_dataset

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


def _models(monkeypatch):
    """{name: (residual, jac)} of every least-squares model, each captured
    from one fit of its kind."""
    captured = []
    for module in (decayfit, spectro):
        real = module.run_least_squares

        def capture(residual, jac, x0, bounds, real=real):
            captured.append((residual, jac))
            return real(residual, jac, x0, bounds)
        monkeypatch.setattr(module, "run_least_squares", capture)
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
    names = ("exponential", "ramsey", "cpmg", "dispersion", "transmission")
    assert len(captured) == len(names)
    return dict(zip(names, captured))


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
    residual, jac = _models(monkeypatch)[name]
    centre, spread = map(np.asarray, PARAMETERS[name])
    rng = np.random.default_rng(sorted(PARAMETERS).index(name))
    points = [centre * (1.0 + spread * rng.uniform(-1.0, 1.0, centre.size))
              for _ in range(5)]
    if name == "transmission":
        points.append(np.array([0.0, CAVITY.gamma, CAVITY.f_r]))
    for p in points:
        analytic, numeric = jac(p), _central_differences(residual, p)
        assert analytic.shape == numeric.shape
        for j in range(p.size):
            assert np.all(np.isfinite(analytic[:, j]))
            assert np.linalg.norm(analytic[:, j] - numeric[:, j]) <= \
                1e-6 * np.linalg.norm(analytic[:, j]), (name, p, j)


def _converged_run_least_squares(residual, jac, x0, bounds):
    result = least_squares(residual, np.asarray(x0, dtype=float), jac=jac,
                           bounds=bounds, x_scale="jac", ftol=1e-15,
                           xtol=1e-15, gtol=1e-15, max_nfev=10000)
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


def test_fits_are_close_to_the_converged_minimum(monkeypatch):
    seeds = range(10)
    fitted = np.array([_decay_times(seed) for seed in seeds])
    monkeypatch.setattr(decayfit, "run_least_squares",
                        _converged_run_least_squares)
    converged = np.array([_decay_times(seed) for seed in seeds])
    rel = np.abs(fitted / converged - 1.0)
    assert rel[..., 0].max() <= 1e-6          # T1
    assert rel[..., 1].max() <= 1e-6          # T2
    assert rel[..., 2:].max() <= 1e-6         # T_phi


def test_unconverged_fit_is_a_fit_error(monkeypatch):
    monkeypatch.setattr(fitutil, "least_squares", lambda *args, **kwargs:
                        SimpleNamespace(success=False, message="no progress"))
    with pytest.raises(fitutil.FitError,
                       match="least-squares did not converge: no progress"):
        fitutil.run_least_squares(lambda p: p, lambda p: np.eye(1), [1.0],
                                  (-np.inf, np.inf))


def test_pipeline_never_uses_finite_differences(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("finite-difference Jacobian requested")
    # least_squares reaches approx_derivative through a module-level name,
    # in scipy.optimize._lsq.least_squares or, in newer scipy, in
    # scipy.optimize._differentiable_functions
    for name, module in list(sys.modules.items()):
        if name.startswith("scipy.optimize") and \
                getattr(module, "approx_derivative", None) is approx_derivative:
            monkeypatch.setattr(module, "approx_derivative", refuse)
    config = q1_dataset(tmp_path / "q1")
    s21 = _transmission_trace()
    (tmp_path / "s21.csv").write_text(format_csv(
        dict(zip(SPECTRUM_HEADER, s21.T.tolist()))))
    probe = np.linspace(5.0e9, 5.6e9, 301)
    two_tone = np.array([(v, f, 0.9 / (1.0 + ((f - f_q) / 5e6) ** 2))
                         for v, f_q in _dispersion_points() for f in probe])
    (tmp_path / "two_tone.csv").write_text(format_csv(
        dict(zip(TWO_TONE_HEADER, two_tone.T.tolist()))))
    config.update(transmission_trace=str(tmp_path / "s21.csv"),
                  two_tone_map=str(tmp_path / "two_tone.csv"))
    report = run_pipeline(AnalysisConfig(**config))
    assert len(report.sections["decay_fits"]["fits"]) == \
        len(config["decay_traces"])
    assert {"transmission", "dispersion"} <= set(report.sections["spectro"])
    assert not report.warnings
