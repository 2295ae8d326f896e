"""Seeded inputs, ops and per-op correctness checks of the benchmark workloads.

Every workload is closed-loop with one client: the next op starts only when
the previous one has returned.  ``build(name, seed, workdir)`` returns a
Workload whose ``setup()`` generates the inputs from the seed (files on disk
for pipeline_batch, noise specs for the others) and runs a warm-up, and
whose ``cycle`` is the fixed list of ops one pass over the workload runs.

Ops call into qnl through module attributes (``pipeline.run_pipeline``, not
a name bound at import time), so the tracer can wrap each public function
where it is called.  An op's ``check`` returns ``(ok, figures)``; figures
carry the accuracy numbers the runner reports (``chi_rel_err``,
``psd_log_ratio``).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.optimize import brentq

from qnl import decayfit, fileio, mcsim, noisespec, pipeline, spectro
from qnl.ddfilter import PulseSequence
from qnl.units import TWO_PI


@dataclass
class Op:
    """One timed unit of work and the check its result must pass."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, dict]]


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    prepare: Callable[["Workload"], None]
    cycle: list[Op] = field(default_factory=list)
    state: dict = field(default_factory=dict)

    def setup(self) -> None:
        """Generate the inputs from the seed, build the cycle, warm up."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.state.clear()
        self.prepare(self)


# ---------------------------------------------------------------------------
# pipeline_batch: run_pipeline on a 6-bias generalisation of the q1 dataset

BIAS_MV = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)
CPMG_PULSES = (1, 2, 4, 8, 16)
BETA = 0.61
# widest |beta - 0.61| over seeds 0-99 is 0.036; the gate leaves margin for
# the trace noise yet fails a scaling fit that loses the injected exponent
BETA_TOL = 0.05
N_DRIFT = 16384
QUBIT = {"f_ss": 5.065e9, "lever_c": 2.348e12, "v_ss": 0.0, "f_q": 5.065e9,
         "f_r": 5.668e9, "kappa": TWO_PI * 0.38e6, "chi": -TWO_PI * 0.06e6,
         "t1": 11.6e-6}
_CREATED = re.compile(rb'\n *"created": "[^"]*",?\n')


def _clip(p):
    return np.clip(p, -0.1, 1.1)


def write_pipeline_dataset(root: Path, seed: int) -> Path:
    """Write the dataset and its config under `root`; return the config path.

    Ground truth per bias point: T1 = 11.6 us, T2* = 8.2 us and
    T_phi(N) = 4 us * N^0.61, each scaled by a seeded factor in [0.9, 1.1];
    a 1/f^1.3 drift record; a transmission trace and a two-tone map from
    spectro's forward models.  Noise levels follow the q1 test fixture.
    """
    rng = np.random.default_rng(seed)
    traces = []
    for bias in BIAS_MV:
        t1, t2, t0 = (base * rng.uniform(0.9, 1.1)
                      for base in (11.6e-6, 8.2e-6, 4e-6))
        tag = f"b{bias:+.0f}mV"

        t = np.linspace(0.02 * t1, 5.0 * t1, 48)
        p = 0.05 + 0.9 * np.exp(-t / t1) + 0.01 * rng.standard_normal(t.size)
        traces.append((f"{tag}_relax.csv", bias, decayfit.DecayTrace(
            times=t, populations=_clip(p), kind="relaxation")))

        t = np.linspace(0.0, 3.0 * t2, 240)
        p = (0.5 + 0.45 * np.exp(-t / t2) * np.cos(TWO_PI * 0.5e6 * t)
             + 0.01 * rng.standard_normal(t.size))
        traces.append((f"{tag}_ramsey.csv", bias, decayfit.DecayTrace(
            times=t, populations=_clip(p), kind="ramsey")))

        for n_pulses in CPMG_PULSES:
            t_phi = t0 * n_pulses ** BETA
            t = np.linspace(0.05 * t_phi, 2.5 * t_phi, 40)
            p = (0.5 + 0.45 * np.exp(-t / (2.0 * t1))
                 * np.exp(-(t / t_phi) ** 2)
                 + 0.008 * rng.standard_normal(t.size))
            traces.append((f"{tag}_cpmg{n_pulses}.csv", bias,
                           decayfit.DecayTrace(
                               times=t, populations=_clip(p),
                               kind="echo" if n_pulses == 1 else "cpmg",
                               n_pulses=n_pulses)))
    paths = []
    for name, bias, trace in traces:
        fileio.write_decay_trace(root / name, trace, bias_mv=bias)
        paths.append(str(root / name))

    dt = 0.5
    spec = mcsim.SyntheticNoise(amplitude=2e4, alpha=1.3,
                                f_min=1.0 / (N_DRIFT * dt), f_max=0.5 / dt,
                                seed=seed)
    drift = mcsim.synthesize_noise(spec, dt, N_DRIFT)
    fileio.write_frequency_series(root / "drift.csv", noisespec.FrequencySeries(
        timestamps=np.arange(N_DRIFT) * dt,
        freqs=QUBIT["f_q"] + drift.samples))

    cavity = spectro.CavityQubitParams(
        f_r=QUBIT["f_r"], kappa=QUBIT["kappa"], f_q=QUBIT["f_r"],
        gamma=TWO_PI * 3.18e6, g=TWO_PI * 5e6 * rng.uniform(0.95, 1.05))
    freqs = np.linspace(5.653e9, 5.683e9, 201)
    amps = (np.abs(spectro.transmission(cavity, freqs))
            + 0.005 * rng.standard_normal(freqs.size))
    _write_csv(root / "s21.csv", fileio.SPECTRUM_HEADER, zip(freqs, amps))

    disp = spectro.QubitDispersion(f_ss=QUBIT["f_ss"],
                                   lever_c=QUBIT["lever_c"],
                                   v_ss=QUBIT["v_ss"])
    volts = np.linspace(-1e-3, 1e-3, 11)
    probe = np.linspace(5.0e9, 5.6e9, 301)
    rows = []
    for v in volts:
        f_q = spectro.qubit_frequency(disp, v - disp.v_ss)
        phase = (0.9 / (1.0 + ((probe - f_q) / 5e6) ** 2)
                 + 0.02 * rng.standard_normal(probe.size))
        rows.extend(zip(np.full(probe.size, v), probe, phase))
    _write_csv(root / "two_tone.csv", fileio.TWO_TONE_HEADER, rows)

    config = {
        "output_dir": str(root / "out"),
        "decay_traces": paths,
        "frequency_series": str(root / "drift.csv"),
        "transmission_trace": str(root / "s21.csv"),
        "two_tone_map": str(root / "two_tone.csv"),
        "qubit": QUBIT,
        "temperatures_k": [0.05, 0.1, 0.2, 0.3, 0.4],
    }
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=1) + "\n")
    return path


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(x)) for x in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def report_digest(path: Path) -> str:
    """sha256 of report.json with its `created` line removed."""
    return hashlib.sha256(_CREATED.sub(b"\n", path.read_bytes())).hexdigest()


def _prepare_pipeline(wl: Workload) -> None:
    config_path = write_pipeline_dataset(wl.workdir, wl.seed)
    report_path = wl.workdir / "out" / "report.json"

    def run():
        return pipeline.run_pipeline(
            pipeline.AnalysisConfig.from_json(config_path))

    def check(report):
        fits = report.sections["decay_fits"]["fits"]
        betas = [row["beta"] for row in
                 report.sections.get("scaling", {}).get("fits", [])]
        digest = report_digest(report_path)
        reference = wl.state.setdefault("digest", digest)
        ok = (len(fits) == len(BIAS_MV) * (2 + len(CPMG_PULSES))
              and len(betas) == len(BIAS_MV)
              and all(abs(b - BETA) <= BETA_TOL for b in betas)
              and digest == reference)
        return ok, {"beta_dev": max((abs(b - BETA) for b in betas),
                                    default=math.inf)}

    wl.cycle = [Op("run_pipeline", run, check)]
    # the warm-up op also fixes the report digest later ops must match
    ok, _ = check(run())
    if not ok:
        raise RuntimeError("pipeline_batch warm-up op failed its check")


# ---------------------------------------------------------------------------
# mc_oracle: Monte Carlo ensembles against the chi_N(tau) integral

MC_TAU = 25e-6
MC_BAND = {"f_min": 2.1e3, "f_max": 2e6}
MC_CHI = 0.7
MC_TRAJ = 6000
MC_DT = MC_TAU / 160
# the 24-delay grid runs past chi = 1 (at 28.9 us), where the check stops
MC_GRID_TAU = 30e-6
# criterion 7 validates the oracle at dt = tau/160, 20 samples per pulse
# interval at N = 8.  At the coarser dt = tau/(10 N) that simulate_sequence
# accepts, chi_mc runs about 5% low, so the 24-delay grid is checked only at
# delays resolved as finely as criterion 7 resolves them.
MC_SAMPLES_PER_INTERVAL = 20
PAIR_TAU = 12e-6
PAIR_SIGMA = 1.2e5          # rms static frequency offset, Hz
PAIR_TRAJ = 3000
PAIR_DT = 0.1e-6
CHI_TOL = 0.10
# seeds of the acceptance criteria 7 and 8; the workload seed shifts them
_SEED_STRIDE = 1000


def _chi(psd, n_pulses, tau, tau_pi=0.0):
    return mcsim.dephasing_integral(
        psd, PulseSequence(n_pulses=n_pulses, tau=tau, tau_pi=tau_pi),
        sensitivity=TWO_PI)


def _chi_mc(trace):
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.log(2.0 * np.asarray(trace.populations) - 1.0)


def _ensemble(spec, n_pulses, tau, n_traj, dt, taus, quiet=False):
    """simulate_sequence followed by its reference chi_N at every delay."""
    seq = PulseSequence(n_pulses=n_pulses, tau=tau)

    def run():
        with warnings.catch_warnings():
            if quiet:
                # the whole band is slower than one record: the expected
                # static-offset warning of the criterion-8 pair
                warnings.filterwarnings(
                    "ignore", message="band extends below the record",
                    category=UserWarning)
            trace = mcsim.simulate_sequence(spec, seq, sensitivity=TWO_PI,
                                            n_traj=n_traj, dt=dt, taus=taus)
        chi = np.array([_chi(spec, n_pulses, t) for t in trace.times])
        return trace, chi
    return run


def _check_chi(n_pulses, dt):
    """chi_mc within CHI_TOL of chi_N wherever chi_N <= 1 and dt resolves
    each pulse interval tau/N with MC_SAMPLES_PER_INTERVAL samples.

    The figures also carry the largest error at the delays with chi_N <= 1
    that dt does not resolve (chi_rel_err_unresolved), ungated, so the
    short-delay bias of simulate_sequence stays in view."""
    def check(result):
        trace, chi = result
        resolved = dt * MC_SAMPLES_PER_INTERVAL * max(n_pulses, 1) \
            <= trace.times * (1 + 1e-12)
        err = np.abs(_chi_mc(trace) - chi) / chi
        usable = (chi <= 1.0) & resolved
        worst = float(err[usable].max()) if usable.any() else math.inf
        figures = {"chi_rel_err": worst}
        unresolved = (chi <= 1.0) & ~resolved
        if unresolved.any():
            figures["chi_rel_err_unresolved"] = float(err[unresolved].max())
        return bool(worst < CHI_TOL), figures
    return check


def _check_pair(n_pulses):
    def check(result):
        trace, _ = result
        coherence = 2.0 * float(trace.populations[0]) - 1.0
        ok = coherence < 0.5 if n_pulses == 0 else coherence >= 0.99
        return ok, {"coherence": coherence}
    return check


def mc_oracle_ops(seed: int, warm_up: bool = False) -> list[Op]:
    """The criterion-7 grid, the criterion-8 pair and one 24-delay ensemble.

    warm_up builds the same ops with 16 trajectories each.
    """
    shift = _SEED_STRIDE * seed

    def traj(n):
        return 16 if warm_up else n

    ops = []
    amplitude = {}
    for alpha in (1.0, 1.5):
        for n_pulses in (1, 4, 8):
            amplitude[alpha, n_pulses] = MC_CHI / _chi(
                {"amplitude": 1.0, "alpha": alpha, **MC_BAND}, n_pulses,
                MC_TAU)
            spec = mcsim.SyntheticNoise(
                amplitude=amplitude[alpha, n_pulses], alpha=alpha,
                seed=70 + n_pulses + int(10 * alpha) + shift, **MC_BAND)
            ops.append(Op(f"chi7_a{alpha}_n{n_pulses}",
                          _ensemble(spec, n_pulses, MC_TAU, traj(MC_TRAJ),
                                    MC_DT, [MC_TAU]),
                          _check_chi(n_pulses, MC_DT)))

    pair = mcsim.SyntheticNoise(amplitude=PAIR_SIGMA**2 / 0.99, alpha=0.0,
                                f_min=0.01, f_max=1.0, seed=8 + shift)
    for n_pulses in (0, 1):
        ops.append(Op(f"pair8_n{n_pulses}",
                      _ensemble(pair, n_pulses, PAIR_TAU, traj(PAIR_TRAJ),
                                PAIR_DT, [PAIR_TAU], quiet=True),
                      _check_pair(n_pulses)))

    grid = mcsim.SyntheticNoise(amplitude=amplitude[1.5, 8], alpha=1.5,
                                seed=80 + shift, **MC_BAND)
    ops.append(Op("grid24_n8",
                  _ensemble(grid, 8, MC_GRID_TAU, traj(MC_TRAJ), MC_DT, None),
                  _check_chi(8, MC_DT)))
    return ops


def _prepare_mc(wl: Workload) -> None:
    wl.cycle = mc_oracle_ops(wl.seed)
    for op in mc_oracle_ops(wl.seed, warm_up=True):
        op.run()


# ---------------------------------------------------------------------------
# psd_sweep: T_phi from chi_N = 1, then the box-estimate PSD point

PSD_ALPHAS = (1.0, 1.5, 2.0)
PSD_PULSES = (1, 2, 4, 8, 16, 32, 64)
# At (alpha=2, N=1) the box estimate returns S_rec/S_true = 2.09, outside
# criterion 6's gate: the known box-estimate bias, left out until the
# inversion is exact.
PSD_SKIP = {(2.0, 1)}
PSD_TAU_PI = 20e-9
PSD_BAND = {"f_min": 2.1e3, "f_max": 2.5e6}
PSD_T_REF = 15e-6           # chi(N=2, 15 us) = 1 before the seeded jitter
PSD_T_MAX = 3e-4


def _psd_op(psd, n_pulses):
    alpha = psd["alpha"]

    def run():
        lo = max(1e-6, 2.0 * n_pulses * PSD_TAU_PI)
        t_phi = brentq(lambda tau: _chi(psd, n_pulses, tau, PSD_TAU_PI) - 1.0,
                       lo, PSD_T_MAX)
        return noisespec.reconstruct_psd_point(
            t_phi, PulseSequence(n_pulses=n_pulses, tau=t_phi,
                                 tau_pi=PSD_TAU_PI))

    def check(point):
        ratio = point.value / (psd["amplitude"] * point.freq ** -alpha)
        return 0.5 < ratio < 2.0, {"psd_log_ratio": abs(math.log(ratio))}

    return Op(f"psd_a{alpha}_n{n_pulses}", run, check)


def _prepare_psd(wl: Workload) -> None:
    rng = np.random.default_rng(wl.seed)
    wl.cycle = []
    for alpha in PSD_ALPHAS:
        shape = {"amplitude": 1.0, "alpha": alpha, **PSD_BAND}
        psd = dict(shape, amplitude=math.exp(rng.uniform(-0.05, 0.05))
                   / _chi(shape, 2, PSD_T_REF, PSD_TAU_PI))
        wl.cycle.extend(_psd_op(psd, n) for n in PSD_PULSES
                        if (alpha, n) not in PSD_SKIP)
    wl.cycle[0].run()


WORKLOADS = {
    "pipeline_batch": _prepare_pipeline,
    "mc_oracle": _prepare_mc,
    "psd_sweep": _prepare_psd,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return Workload(name=name, seed=seed, workdir=workdir,
                    prepare=WORKLOADS[name])
