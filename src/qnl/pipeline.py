"""End-to-end analysis pipeline: ingest, fit, reconstruct, report.

run_pipeline orchestrates the per-trace decay fits, the T_phi-vs-N
scaling, PSD reconstruction with voltage-noise conversion, the
low-frequency periodogram, thermal-model curves, and spectroscopy fits,
and writes a single JSON report plus per-table CSVs.  Every reported
number traces back to an input file (hashed in the provenance block) or
to a config parameter echoed verbatim.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .decayfit import (DecayTrace, ScalingError, fit_cpmg, fit_ramsey,
                       fit_relaxation, fit_scaling)
from .ddfilter import PulseSequence
from .fileio import (PSD_HEADER, Diagnostic, InputError, atomic_write_text,
                     format_csv, is_finite_number, load_charge_noise_table,
                     load_decay_trace, load_frequency_series,
                     load_spectroscopy_trace, load_two_tone_map, sha256_of,
                     sidecar_path, write_thermal_csv)
from .fitutil import FitError
from .noisespec import (FrequencySeries, periodogram, powerlaw_fit,
                        reconstruct_psd_point, to_voltage_noise,
                        transverse_noise)
from .spectro import (QubitDispersion, fit_dispersion, fit_transmission,
                      lever_arm, qubit_frequency)
from .thermal import (ThermalModel, photon_occupation, resonator_dephasing,
                      t1_vs_temperature, thermal_population)

ALL_STAGES = ("decay", "scaling", "psd", "lowfreq", "thermal", "spectro")


class PipelineError(RuntimeError):
    """Raised when validation finds errors; carries the diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class AnalysisConfig:
    """Pipeline inputs, qubit metadata, stage selection, and output paths.

    qubit keys used when present: f_ss, lever_c, v_ss (dispersion and
    voltage-noise conversion), f_r, kappa (transmission fit), chi, t1
    (thermal curves; t1 doubles as the CPMG fallback when a bias point has
    no relaxation trace).  All in SI units (Hz, rad/s, V, s).
    """

    output_dir: str
    decay_traces: list[str] = field(default_factory=list)
    frequency_series: str | None = None
    transmission_trace: str | None = None
    two_tone_map: str | None = None
    qubit: dict = field(default_factory=dict)
    temperatures_k: list[float] = field(default_factory=list)
    stages: list[str] = field(default_factory=lambda: list(ALL_STAGES))
    seed: int = 0

    @classmethod
    def from_json(cls, path) -> "AnalysisConfig":
        """Load a config, raising PipelineError on malformed JSON or
        unknown keys so callers never see a bare TypeError."""
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise PipelineError([Diagnostic("error", f"invalid JSON: {exc}",
                                            file=str(path))])
        if not isinstance(payload, dict):
            raise PipelineError([Diagnostic(
                "error", "config must be a JSON object", file=str(path))])
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise PipelineError([
                Diagnostic("error", f"unknown config key {key!r}; expected "
                                    f"keys from {sorted(known)}",
                           file=str(path), column=key)
                for key in unknown])
        return cls(**payload)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ReportBundle:
    """The pipeline's single self-describing output.

    sections map section name to a JSON-ready payload whose "sources"
    entry lists the input files it was derived from; provenance maps every
    input file to its sha256 at analysis time.
    """

    version: str
    created: str
    config: dict
    provenance: dict
    sections: dict
    warnings: list

    def to_dict(self) -> dict:
        return {"version": self.version, "created": self.created,
                "config": self.config, "provenance": self.provenance,
                "sections": self.sections, "warnings": self.warnings}

    @classmethod
    def from_dict(cls, payload: dict) -> "ReportBundle":
        return cls(version=payload["version"], created=payload["created"],
                   config=payload["config"], provenance=payload["provenance"],
                   sections=payload["sections"],
                   warnings=payload["warnings"])

    def save(self, path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=1,
                                           sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "ReportBundle":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class LoadedInputs:
    """Objects parsed from a config's files; None where absent or faulty."""

    traces: list[tuple[str, DecayTrace, dict]] = field(default_factory=list)
    series: FrequencySeries | None = None
    transmission: np.ndarray | None = None
    two_tone: np.ndarray | None = None


def load_inputs(config: AnalysisConfig) -> tuple[LoadedInputs, list]:
    """Type-check the config and parse every configured file exactly once.

    Returns the loaded objects and every diagnostic: errors abort
    run_pipeline; warnings (a population outside the [-0.1, 1.1]
    tolerance) let it proceed with the offending trace excluded.
    """
    diags = _config_diagnostics(config)
    loaded = LoadedInputs()

    def attempt(loader, path):
        try:
            return loader(path)
        except InputError as exc:
            diags.append(exc.diagnostic)
            return None

    if _is_path_list(config.decay_traces):
        for path in config.decay_traces:
            result = attempt(load_decay_trace, path)
            if result is not None:
                loaded.traces.append((path, *result))
    if isinstance(config.frequency_series, str):
        loaded.series = attempt(load_frequency_series,
                                config.frequency_series)
    if isinstance(config.transmission_trace, str):
        loaded.transmission = attempt(load_spectroscopy_trace,
                                      config.transmission_trace)
    if isinstance(config.two_tone_map, str):
        loaded.two_tone = attempt(load_two_tone_map, config.two_tone_map)
    return loaded, diags


def _config_diagnostics(config: AnalysisConfig) -> list[Diagnostic]:
    """Type and range errors of the config fields themselves."""
    found = []
    for name in ("output_dir", "frequency_series", "transmission_trace",
                 "two_tone_map"):
        value = getattr(config, name)
        if not isinstance(value, str) and (value is not None
                                           or name == "output_dir"):
            found.append((name, f"must be a path string, got {value!r}"))
    if not _is_path_list(config.decay_traces):
        found.append(("decay_traces", "must be a list of path strings, got "
                                      f"{config.decay_traces!r}"))
    if isinstance(config.qubit, dict):
        for key, value in config.qubit.items():
            if not is_finite_number(value):
                found.append((key, f"qubit metadata {key} must be a finite "
                                   f"number, got {value!r}"))
            elif key in ("f_ss", "lever_c", "f_r", "kappa", "t1", "f_q") \
                    and not value > 0:
                found.append((key, f"qubit metadata {key} must be positive, "
                                   f"got {value}"))
    else:
        found.append(("qubit", f"must be an object, got {config.qubit!r}"))
    if not (isinstance(config.temperatures_k, list)
            and all(is_finite_number(t) and t > 0
                    for t in config.temperatures_k)):
        found.append(("temperatures_k", "must be a list of positive numbers, "
                                        f"got {config.temperatures_k!r}"))
    if not (isinstance(config.stages, list)
            and all(stage in ALL_STAGES for stage in config.stages)):
        found.append(("stages", f"must be a list drawn from {ALL_STAGES}, "
                                f"got {config.stages!r}"))
    if not (config.decay_traces or config.frequency_series
            or config.transmission_trace or config.two_tone_map):
        found.append((None, "empty dataset list: no inputs configured"))
    return [Diagnostic("error", message, column=column)
            for column, message in found]


def _is_path_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(p, str) for p in value)


def validate_inputs(config: AnalysisConfig) -> list[Diagnostic]:
    """load_inputs' diagnostics; an empty list means run-ready."""
    return load_inputs(config)[1]


def run_pipeline(config: AnalysisConfig) -> ReportBundle:
    """Run the configured stages and write the report atomically.

    Parses the inputs once through load_inputs and raises PipelineError
    (writing nothing) when it reports errors; its warnings, and fits that
    fail, are carried into the report's warnings list.
    """
    loaded, diags = load_inputs(config)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise PipelineError(errors)
    warnings_list = [str(d) for d in diags]

    inputs: dict[str, str] = {}

    def _track(path) -> None:
        key = str(path)
        if key not in inputs:
            inputs[key] = sha256_of(path)

    qubit = config.qubit
    disp = None
    if qubit.get("f_ss") and qubit.get("lever_c") is not None:
        disp = QubitDispersion(f_ss=qubit["f_ss"], lever_c=qubit["lever_c"],
                               v_ss=qubit.get("v_ss", 0.0))

    sections: dict = {}
    stages = set(config.stages)

    # ---- per-trace decay fits -------------------------------------------
    decay_fits: list[dict] = []
    relax_by_bias: dict[float, dict] = {}
    if "decay" in stages and config.decay_traces:
        # relaxation first: its T1 feeds the echo/CPMG fits at its bias
        for path, trace, meta in sorted(
                loaded.traces, key=lambda item: item[1].kind != "relaxation"):
            _track(path)
            _track(sidecar_path(path))
            try:
                if trace.kind == "relaxation":
                    fit = fit_relaxation(trace)
                elif trace.kind == "ramsey":
                    fit = fit_ramsey(trace)
                else:
                    t1 = _t1_for(_bias_of(meta), relax_by_bias, qubit)
                    if t1 is None:
                        warnings_list.append(
                            f"[warning] {path}: no T1 available for this "
                            "bias and no qubit.t1 fallback; trace skipped")
                        continue
                    fit = fit_cpmg(trace, t1)
            except (FitError, ValueError) as exc:
                warnings_list.append(f"[warning] {path}: fit failed ({exc})")
                continue
            record = _fit_record(path, trace, meta, fit)
            decay_fits.append(record)
            if trace.kind == "relaxation":
                relax_by_bias[_bias_of(meta)] = record
        sections["decay_fits"] = {
            "fits": decay_fits,
            "sources": sorted({f["file"] for f in decay_fits}
                              | {str(sidecar_path(f["file"]))
                                 for f in decay_fits}),
        }

    # ---- T_phi vs N scaling ---------------------------------------------
    if "scaling" in stages and decay_fits:
        scaling_rows = []
        by_bias: dict[float, list[dict]] = {}
        for record in decay_fits:
            if record["n_pulses"] >= 1 and record["params"].get("t_phi"):
                by_bias.setdefault(record["bias_mv"], []).append(record)
        for bias, records in sorted(by_bias.items()):
            points = [(r["n_pulses"], r["params"]["t_phi"]) for r in records]
            if len(points) < 3:
                continue
            try:
                scaling = fit_scaling(points)
            except (ScalingError, FitError) as exc:
                warnings_list.append(
                    f"[warning] scaling at bias {bias} mV: {exc}")
                continue
            scaling_rows.append({
                "bias_mv": bias, "beta": scaling.beta,
                "alpha": scaling.alpha, "beta_err": scaling.beta_err,
                "alpha_err": scaling.alpha_err,
                "n_points": len(points),
            })
        if scaling_rows:
            sections["scaling"] = {
                "fits": scaling_rows,
                "sources": sections["decay_fits"]["sources"],
            }

    # ---- PSD reconstruction and conversions ------------------------------
    if "psd" in stages and decay_fits:
        psd_rows = []
        for record in decay_fits:
            params = record["params"]
            if record["n_pulses"] >= 1 and params.get("t_phi"):
                seq = PulseSequence(n_pulses=record["n_pulses"],
                                    tau=params["t_phi"])
                point = reconstruct_psd_point(params["t_phi"], seq)
                row = {"freq_hz": point.freq, "psd": point.value,
                       "units": point.units, "n_pulses": record["n_pulses"],
                       "bias_mv": record["bias_mv"], "source": record["file"]}
                psd_rows.append(row)
                if disp is not None:
                    dv = record["bias_mv"] * 1e-3 - disp.v_ss
                    lever = lever_arm(disp, dv)
                    if lever != 0.0:
                        volt = to_voltage_noise(point, lever)
                        psd_rows.append({
                            "freq_hz": volt.freq, "psd": volt.value,
                            "units": volt.units,
                            "n_pulses": record["n_pulses"],
                            "bias_mv": record["bias_mv"],
                            "source": record["file"]})
            elif record["kind"] == "relaxation" and params.get("t1"):
                f_q = qubit.get("f_q") or qubit.get("f_ss")
                if disp is not None:
                    f_q = qubit_frequency(
                        disp, record["bias_mv"] * 1e-3 - disp.v_ss)
                if f_q:
                    point = transverse_noise(params["t1"], f_q)
                    psd_rows.append({
                        "freq_hz": point.freq, "psd": point.value,
                        "units": point.units, "n_pulses": 0,
                        "bias_mv": record["bias_mv"],
                        "source": record["file"]})
        if psd_rows:
            freq_points = [r for r in psd_rows if r["units"] == "freq_noise"
                           and r["n_pulses"] >= 1]
            try:
                fit = powerlaw_fit([(r["freq_hz"], r["psd"])
                                    for r in freq_points])
            except FitError:
                fit = None
            sections["psd"] = {
                "points": psd_rows,
                "powerlaw": fit,
                "sources": sorted({r["source"] for r in psd_rows}),
            }

    # ---- low-frequency periodogram ---------------------------------------
    if "lowfreq" in stages and loaded.series is not None:
        _track(config.frequency_series)
        points = periodogram(loaded.series)
        try:
            fit = powerlaw_fit(points)
        except FitError as exc:
            warnings_list.append(f"[warning] {config.frequency_series}: "
                                 f"power-law fit failed ({exc})")
            fit = None
        sections["low_frequency"] = {
            "points": [{"freq_hz": p.freq, "psd": p.value, "units": p.units}
                       for p in points],
            "powerlaw": fit,
            "sources": [str(config.frequency_series)],
        }

    # ---- thermal-model curves ---------------------------------------------
    thermal_keys = ("f_q", "f_r", "kappa", "chi", "t1")
    if "thermal" in stages and config.temperatures_k \
            and all(qubit.get(k) is not None for k in thermal_keys):
        model = ThermalModel(f_q=qubit["f_q"], f_r=qubit["f_r"],
                             kappa=qubit["kappa"], chi=qubit["chi"],
                             t1_zero=qubit["t1"])
        rows = []
        for temp in config.temperatures_k:
            n_th = photon_occupation(model.f_r, temp)
            rows.append({
                "temp_k": temp,
                "t1_s": t1_vs_temperature(model, temp),
                "pe": thermal_population(model.f_q, temp),
                "n_th": n_th,
                "gamma_phi": resonator_dephasing(model, n_th),
            })
        sections["thermal"] = {"curves": rows, "sources": []}

    # ---- spectroscopy fits -------------------------------------------------
    if "spectro" in stages:
        spectro_section: dict = {"sources": []}
        if loaded.transmission is not None and qubit.get("f_r") \
                and qubit.get("kappa"):
            _track(config.transmission_trace)
            try:
                spectro_section["transmission"] = fit_transmission(
                    loaded.transmission,
                    {"f_r": qubit["f_r"], "kappa": qubit["kappa"]})
                spectro_section["sources"].append(
                    str(config.transmission_trace))
            except FitError as exc:
                warnings_list.append(f"[warning] {config.transmission_trace}"
                                     f": transmission fit failed ({exc})")
        if loaded.two_tone is not None:
            _track(config.two_tone_map)
            try:
                fitted, report = fit_dispersion(ridge_points(loaded.two_tone),
                                                full_output=True)
                spectro_section["dispersion"] = {
                    "f_ss": fitted.f_ss, "lever_c": fitted.lever_c,
                    "v_ss": fitted.v_ss, **report}
                spectro_section["sources"].append(str(config.two_tone_map))
            except FitError as exc:
                warnings_list.append(f"[warning] {config.two_tone_map}: "
                                     f"dispersion fit failed ({exc})")
        if len(spectro_section) > 1:
            sections["spectro"] = spectro_section

    sections["reference_charge_noise"] = {
        "rows": load_charge_noise_table(),
        "sources": [],
        "note": "literature comparison values shipped as package data",
    }

    report = ReportBundle(
        version=__version__,
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        config=config.to_dict(),
        provenance={"inputs": inputs},
        sections=sections,
        warnings=warnings_list,
    )
    _write_outputs(config, report)
    return report


def verify_report_provenance(report: ReportBundle) -> dict[str, str]:
    """Check every section's sources against the recorded input hashes.

    Returns {section: "ok" | "missing: path" | "changed: path"}; deleting
    or editing an input invalidates exactly the sections derived from it.
    """
    status = {}
    recorded = report.provenance.get("inputs", {})
    for name, payload in report.sections.items():
        verdict = "ok"
        for source in payload.get("sources", []):
            path = Path(source)
            if not path.exists():
                verdict = f"missing: {source}"
                break
            if sha256_of(path) != recorded.get(source):
                verdict = f"changed: {source}"
                break
        status[name] = verdict
    return status


def _write_outputs(config: AnalysisConfig, report: ReportBundle) -> None:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.save(out / "report.json")

    decay = report.sections.get("decay_fits")
    if decay:
        rows = []
        for f in decay["fits"]:
            p = f["params"]
            rows.append([f["file"], f["kind"], f["n_pulses"], f["bias_mv"],
                         p.get("t1"), p.get("t2"), p.get("t_phi"),
                         p.get("stretch"), p.get("amplitude"),
                         p.get("offset"), p.get("detuning")])
        header = ["file", "kind", "n_pulses", "bias_mv", "t1_s", "t2_s",
                  "t_phi_s", "stretch", "amplitude", "offset", "detuning_hz"]
        atomic_write_text(out / "coherence_fits.csv",
                          format_csv(header, rows))

    for name, key in (("psd_points.csv", "psd"),
                      ("periodogram.csv", "low_frequency")):
        section = report.sections.get(key)
        if section:
            atomic_write_text(out / name, format_csv(
                PSD_HEADER, [(r["freq_hz"], r["psd"], r["units"])
                             for r in section["points"]]))

    thermal = report.sections.get("thermal")
    if thermal:
        write_thermal_csv(out / "thermal_model.csv",
                          [(r["temp_k"], r["t1_s"], r["pe"], r["n_th"],
                            r["gamma_phi"]) for r in thermal["curves"]])


def _fit_record(path: str, trace, meta: dict, fit) -> dict:
    params = {k: getattr(fit, k) for k in
              ("t1", "t2", "t_phi", "stretch", "amplitude", "offset",
               "detuning", "phase")}
    return {
        "file": str(path),
        "kind": trace.kind,
        "n_pulses": trace.n_pulses,
        "bias_mv": _bias_of(meta),
        "temperature_mk": meta.get("temperature_mk"),
        "params": params,
        "errors": {k: float(v) for k, v in fit.errors.items()},
        "flags": list(fit.flags),
    }


def _bias_of(meta: dict) -> float:
    bias = meta.get("bias_mv")
    return 0.0 if bias is None else float(bias)


def _t1_for(bias: float, relax_by_bias: dict, qubit: dict):
    record = relax_by_bias.get(bias)
    if record is not None:
        return record["params"]["t1"]
    if relax_by_bias and len(relax_by_bias) == 1:
        return next(iter(relax_by_bias.values()))["params"]["t1"]
    return qubit.get("t1")


def ridge_points(table: np.ndarray) -> list[tuple[float, float]]:
    """Qubit-line points from a two-tone map: per voltage, the frequency
    with the strongest phase response relative to that column's median."""
    points = []
    for voltage in np.unique(table[:, 0]):
        rows = table[table[:, 0] == voltage]
        response = np.abs(rows[:, 2] - np.median(rows[:, 2]))
        points.append((float(voltage), float(rows[np.argmax(response), 1])))
    return points
