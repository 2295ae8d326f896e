"""Command-line entry points for the analysis chain.

Every subcommand is a thin shell over the library: parse arguments, load
files, call one function, print JSON or CSV.  Exit status is 0 on
success, 1 on validation errors or failed fits.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import asdict

import click
import numpy as np

from .ddfilter import PulseSequence, filter_value, first_harmonic_peak
from .fileio import (atomic_write_text, format_csv, format_json,
                     load_decay_trace, load_frequency_series, load_psd_csv,
                     load_spectroscopy_trace, load_two_tone_map,
                     trace_columns, write_decay_trace)
from .fitutil import FIT_FAILURES
from .mcsim import SyntheticNoise, simulate_sequence
from .noisespec import periodogram, powerlaw_fit, reconstruct_psd_point
from .pipeline import (AnalysisConfig, PipelineError, fit_trace,
                       fit_two_tone, run_pipeline, spectrum_columns,
                       thermal_curves, validate_inputs)
from .resonator import FilmParams, kinetic_inductance, lumped_model
from .spectro import fit_transmission
from .thermal import ThermalModel


def _echo_json(payload) -> None:
    click.echo(format_json(payload))


class _FiniteFloat(click.types.FloatParamType):
    """A float option that refuses nan and inf, which no command takes."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite float.", param, ctx)
        return number


_FINITE = _FiniteFloat()


def _parse_grid(text: str) -> np.ndarray:
    """'start:stop:steps' -> inclusive linspace."""
    try:
        start_s, stop_s, steps_s = text.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError:
        raise click.BadParameter(f"expected start:stop:steps, got {text!r}")
    if steps < 2 or not -math.inf < start < stop < math.inf:
        raise click.BadParameter(f"degenerate grid {text!r}")
    return np.linspace(start, stop, steps)


class _Main(click.Group):
    """A FIT_FAILURES fault or a PipelineError ends on stderr, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PipelineError as exc:
            for diag in exc.diagnostics:
                click.echo(str(diag), err=True)
        except FIT_FAILURES as exc:
            click.echo(str(exc), err=True)
        ctx.exit(1)


@click.group(cls=_Main)
def main():
    """Noise spectroscopy analysis for charge-sensitive qubits."""


@main.command("fit-decay")
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--t1", type=_FINITE, default=None,
              help="Fixed T1 (s) for echo/CPMG dephasing fits.")
def fit_decay_cmd(trace_path, t1):
    """Fit a decay trace CSV; kind comes from the JSON sidecar."""
    trace, meta = load_decay_trace(trace_path)
    if trace.n_pulses and t1 is None:
        raise click.UsageError("echo/CPMG traces need --t1 (seconds)")
    fit = fit_trace(trace, t1)
    payload = {k: v for k, v in asdict(fit).items() if v is not None}
    payload["kind"] = trace.kind
    payload["n_pulses"] = trace.n_pulses
    payload["flags"] = list(fit.flags)
    payload.update({f"meta_{k}": v for k, v in meta.items()})
    _echo_json(payload)


@main.command("fit-spectrum")
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(["transmission", "dispersion"]),
              required=True)
@click.option("--f-r", type=_FINITE, default=None,
              help="Bare resonator frequency (Hz), transmission fits.")
@click.option("--kappa", type=_FINITE, default=None,
              help="Resonator linewidth (rad/s), transmission fits.")
def fit_spectrum_cmd(trace_path, kind, f_r, kappa):
    """Fit a transmission trace or a two-tone dispersion map."""
    if kind == "transmission":
        if f_r is None or kappa is None:
            raise click.UsageError("transmission fits need --f-r and --kappa")
        result = fit_transmission(load_spectroscopy_trace(trace_path),
                                  {"f_r": f_r, "kappa": kappa})
    else:
        result = fit_two_tone(load_two_tone_map(trace_path))
    _echo_json(result)


@main.command("reconstruct-psd")
@click.option("--t-phi", type=_FINITE, required=True,
              help="Fitted dephasing time (s).")
@click.option("--n-pulses", type=int, required=True)
@click.option("--tau-pi", type=_FINITE, default=0.0, show_default=True)
def reconstruct_psd_cmd(t_phi, n_pulses, tau_pi):
    """Single-point PSD estimate from one CPMG dephasing time."""
    seq = PulseSequence(n_pulses=n_pulses, tau=t_phi, tau_pi=tau_pi)
    point = reconstruct_psd_point(t_phi, seq)
    _echo_json({"freq_hz": point.freq, "psd": point.value,
                "units": point.units})


@main.command("periodogram")
@click.argument("series_path", type=click.Path(exists=True, dir_okay=False))
def periodogram_cmd(series_path):
    """PSD of a uniformly sampled frequency time series, as CSV."""
    spectrum = periodogram(load_frequency_series(series_path))
    click.echo(format_csv(spectrum_columns(spectrum)), nl=False)


@main.command("powerlaw-fit")
@click.argument("psd_path", type=click.Path(exists=True, dir_okay=False))
def powerlaw_fit_cmd(psd_path):
    """Fit S = A/f^alpha to PSD points from a CSV with one units tag."""
    _echo_json(powerlaw_fit(load_psd_csv(psd_path)))


@main.command("thermal-model")
@click.option("--fq", type=_FINITE, required=True,
              help="Qubit frequency (Hz).")
@click.option("--fr", type=_FINITE, required=True,
              help="Resonator frequency (Hz).")
@click.option("--kappa", type=_FINITE, required=True,
              help="Resonator linewidth (rad/s).")
@click.option("--chi", type=_FINITE, required=True,
              help="Dispersive shift (rad/s).")
@click.option("--t1-zero", type=_FINITE, required=True,
              help="Zero-temperature T1 (s).")
@click.option("--temps", required=True, metavar="TMIN:TMAX:STEPS",
              help="Temperature grid in kelvin.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write CSV here instead of stdout.")
def thermal_model_cmd(fq, fr, kappa, chi, t1_zero, temps, out):
    """Occupation, T1 and dephasing rate on a temperature grid, as CSV."""
    model = ThermalModel(f_q=fq, f_r=fr, kappa=kappa, chi=chi,
                         t1_zero=t1_zero)
    text = format_csv(thermal_curves(model, _parse_grid(temps)))
    if out:
        atomic_write_text(out, text)
    else:
        click.echo(text, nl=False)


@main.command("resonator-calc")
@click.option("--tc", type=_FINITE, required=True,
              help="Film critical temperature (K).")
@click.option("--rsq", type=_FINITE, required=True,
              help="Normal-state sheet resistance (ohm/square).")
@click.option("--width", type=_FINITE, required=True, help="Strip width (m).")
@click.option("--length", type=_FINITE, required=True,
              help="Strip length (m).")
@click.option("--fdiff", type=_FINITE, required=True,
              help="Differential-mode frequency (Hz).")
def resonator_calc_cmd(tc, rsq, width, length, fdiff):
    """Kinetic inductance and the lumped-element mode parameters."""
    l_k = kinetic_inductance(FilmParams(t_c=tc, r_square=rsq))
    model = lumped_model(l_k, width=width, length=length, f_diff=fdiff)
    _echo_json({"l_k_h_per_square": l_k, **asdict(model)})


@main.command("simulate")
@click.option("--amplitude", type=_FINITE, required=True,
              help="PSD amplitude A in S(f) = A/f^alpha (Hz^2/Hz x Hz^alpha "
                   "per unit sensitivity^2).")
@click.option("--alpha", type=_FINITE, required=True)
@click.option("--fmin", type=_FINITE, required=True)
@click.option("--fmax", type=_FINITE, required=True)
@click.option("--n-pulses", type=int, required=True)
@click.option("--tau-grid", required=True, metavar="TMIN:TMAX:STEPS")
@click.option("--sensitivity", type=_FINITE, default=1.0, show_default=True,
              help="d(omega_q)/d(lambda) in rad/s per noise unit.")
@click.option("--n-traj", type=int, default=400, show_default=True)
@click.option("--dt", type=_FINITE, default=None,
              help="Sample step (s); default tau_min/(32 max(N,1)).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write a decay-trace CSV (+ sidecar) instead of stdout.")
def simulate_cmd(amplitude, alpha, fmin, fmax, n_pulses, tau_grid,
                 sensitivity, n_traj, dt, seed, out):
    """Monte Carlo dephasing decay under synthesized power-law noise."""
    taus = _parse_grid(tau_grid)
    if dt is None:
        dt = taus[0] / (32.0 * max(n_pulses, 1))
    spec = SyntheticNoise(amplitude=amplitude, alpha=alpha, f_min=fmin,
                          f_max=fmax, seed=seed)
    seq = PulseSequence(n_pulses=n_pulses, tau=float(taus[-1]))
    trace = simulate_sequence(spec, seq, sensitivity=sensitivity,
                              n_traj=n_traj, dt=dt, taus=taus)
    if out:
        write_decay_trace(out, trace)
    else:
        click.echo(format_csv(trace_columns(trace)), nl=False)


@main.command("filter-fn")
@click.option("--n", "n_pulses", type=int, required=True,
              help="Pulse count; 0 = Ramsey.")
@click.option("--tau", type=_FINITE, required=True,
              help="Total evolution time (s).")
@click.option("--tau-pi", type=_FINITE, default=0.0, show_default=True)
@click.option("--grid", required=True, metavar="FMIN:FMAX:STEPS",
              help="Frequency grid (Hz).")
@click.option("--peak", is_flag=True,
              help="Also print the first-harmonic peak to stderr.")
def filter_fn_cmd(n_pulses, tau, tau_pi, grid, peak):
    """Tabulate the sequence filter g_N(2 pi f, tau) as freq_hz,g CSV."""
    seq = PulseSequence(n_pulses=n_pulses, tau=tau, tau_pi=tau_pi)
    freqs = _parse_grid(grid)
    # the peak first, so that a sequence without one prints no table
    pk = first_harmonic_peak(seq) if peak else None
    values = filter_value(seq, 2.0 * np.pi * freqs)
    click.echo(format_csv({"freq_hz": freqs.tolist(),
                           "g": values.tolist()}), nl=False)
    if pk is not None:
        click.echo(f"peak freq_hz={pk.f_peak!r} "
                   f"delta_omega={pk.delta_omega!r}", err=True)


@main.command("run")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def run_cmd(config_path):
    """Run the full analysis pipeline from a JSON config."""
    config = AnalysisConfig.from_json(config_path)
    report = run_pipeline(config)
    for line in report.warnings:
        click.echo(line, err=True)
    click.echo(str(os.path.join(config.output_dir, "report.json")))


@main.command("validate")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def validate_cmd(config_path):
    """Validate a config and its inputs; exit 1 if any errors."""
    try:
        diags = validate_inputs(AnalysisConfig.from_json(config_path))
    except PipelineError as exc:
        diags = exc.diagnostics
    for diag in diags:
        click.echo(str(diag))
    if any(d.severity == "error" for d in diags):
        sys.exit(1)
    click.echo("ok")


if __name__ == "__main__":
    main()
