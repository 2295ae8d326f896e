"""End-to-end analysis pipeline: ingest, fit, reconstruct, report.

run_pipeline drives the STAGES table: per-trace decay fits, the
T_phi-vs-N scaling, PSD reconstruction with voltage-noise conversion, the
low-frequency periodogram, thermal-model curves, and spectroscopy fits;
it writes a single JSON report plus per-table CSVs.  Every reported
number traces back to an input file (hashed in the provenance block) or
to a config parameter echoed verbatim.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .decayfit import (DecayTrace, fit_cpmg, fit_ramsey, fit_relaxation,
                       fit_scaling)
from .ddfilter import PulseSequence
from .fileio import (PSD_HEADER, Diagnostic, InputError, atomic_write_text,
                     format_cells, is_finite_number, join_csv,
                     load_charge_noise_table, load_decay_trace,
                     load_frequency_series, load_spectroscopy_trace,
                     load_two_tone_map, sha256_of, sidecar_path)
from .fitutil import FIT_FAILURES
from .noisespec import (FREQ_NOISE, FrequencySeries, periodogram,
                        powerlaw_fit, reconstruct_psd_point,
                        to_voltage_noise, transverse_noise)
from .spectro import (QubitDispersion, fit_dispersion, fit_transmission,
                      lever_arm, qubit_frequency)
from .thermal import (ThermalModel, photon_occupation, resonator_dephasing,
                      t1_vs_temperature, thermal_population)


class PipelineError(RuntimeError):
    """Raised when validation finds errors; carries the diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class AnalysisConfig:
    """Pipeline inputs, qubit metadata, and output paths.

    qubit keys, all optional (any other key is an error): f_ss, lever_c,
    v_ss (dispersion and voltage-noise conversion), f_q (T1 point without
    a dispersion; thermal curves), f_r, kappa (transmission fit), chi, t1
    (thermal curves; t1 doubles as the CPMG fallback when a bias and
    temperature have no relaxation trace).  All in SI units (Hz, rad/s, V,
    s).
    """

    output_dir: str
    decay_traces: list[str] = field(default_factory=list)
    frequency_series: str | None = None
    transmission_trace: str | None = None
    two_tone_map: str | None = None
    qubit: dict = field(default_factory=dict)
    temperatures_k: list[float] = field(default_factory=list)

    @classmethod
    def from_json(cls, path) -> "AnalysisConfig":
        """Load a config; malformed JSON and unknown or missing keys raise
        PipelineError, so callers never see a bare TypeError."""
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise PipelineError([Diagnostic("error", f"invalid JSON: {exc}",
                                            file=str(path))])
        if not isinstance(payload, dict):
            raise PipelineError([Diagnostic(
                "error", "config must be a JSON object", file=str(path))])
        known = {f.name for f in fields(cls)}
        required = {f.name for f in fields(cls) if f.default is MISSING
                    and f.default_factory is MISSING}
        found = [Diagnostic("error", f"unknown config key {key!r}; expected "
                                     f"keys from {sorted(known)}",
                            file=str(path), column=key)
                 for key in sorted(set(payload) - known)]
        found += [Diagnostic("error", f"missing required config key {key!r}",
                             file=str(path), column=key)
                  for key in sorted(required - set(payload))]
        if found:
            raise PipelineError(found)
        return cls(**payload)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ReportBundle:
    """The pipeline's single self-describing output.

    sections map section name to a JSON-ready payload whose "sources"
    entry lists the input files it was derived from; provenance maps
    exactly those files, the union over all sections, to their sha256 at
    analysis time.  warnings holds the load diagnostics that let the run
    proceed, fits that failed, and "stage <name> failed" lines for stages
    whose section was omitted.
    """

    version: str
    created: str
    config: dict
    provenance: dict
    sections: dict
    warnings: list

    def to_dict(self) -> dict:
        return dict(vars(self))

    def save(self, path, texts: dict | None = None) -> None:
        """Write the report as JSON.  texts maps the id() of a list in the
        report to its format_cells texts, from a caller that writes the
        same list to a CSV; a list of finite floats is joined from them."""
        atomic_write_text(path,
                          _json_text(self.to_dict(), texts or {}) + "\n")


# texts of the floats that JSON spells otherwise (NaN, Infinity)
_NON_FINITE = frozenset({"nan", "inf", "-inf"})


def _json_text(value, texts: dict, indent: str = "") -> str:
    """JSON with each object one key per line in sorted order, indented one
    space per level, and each list or scalar on one line: a list of finite
    floats found in texts as ", "-joined cell texts (json.dumps writes a
    finite float as its repr), the rest from the C encoder (with `indent`
    set, json.dumps runs its pure-Python one)."""
    cells = texts.get(id(value))
    if (cells is not None and all(isinstance(v, float) for v in value)
            and _NON_FINITE.isdisjoint(cells)):
        return "[" + ", ".join(cells) + "]"
    if not isinstance(value, dict) or not value:
        return json.dumps(value, sort_keys=True)
    inner = indent + " "
    return "{\n" + ",\n".join(
        f"{inner}{json.dumps(key)}: {_json_text(item, texts, inner)}"
        for key, item in sorted(value.items())) + f"\n{indent}}}"


@dataclass
class StageContext:
    """One run: its config, the objects its files parsed into (None where
    absent or faulty), the sections the stages have built so far, and
    every diagnostic, from the config checks to the report's warnings."""

    config: AnalysisConfig
    diagnostics: list = field(default_factory=list)
    traces: list[tuple[str, DecayTrace, dict]] = field(default_factory=list)
    series: FrequencySeries | None = None
    transmission: np.ndarray | None = None
    two_tone: np.ndarray | None = None
    sections: dict = field(default_factory=dict)

    def warn(self, message: str, file: str | None = None) -> None:
        self.diagnostics.append(Diagnostic("warning", message, file=file))


def load_inputs(config: AnalysisConfig) -> StageContext:
    """Type-check the config and parse every configured file exactly once.

    Returns the run's context, holding the parsed objects and every
    diagnostic: errors abort run_pipeline; warnings (a population outside
    decayfit's tolerance) let it proceed with the offending trace excluded.
    """
    ctx = StageContext(config, _config_diagnostics(config))

    def attempt(loader, path):
        try:
            return loader(path)
        except InputError as exc:
            ctx.diagnostics.append(exc.diagnostic)
            return None

    if _is_path_list(config.decay_traces):
        for path in config.decay_traces:
            result = attempt(load_decay_trace, path)
            if result is not None:
                ctx.traces.append((path, *result))
    if isinstance(config.frequency_series, str):
        ctx.series = attempt(load_frequency_series, config.frequency_series)
    if isinstance(config.transmission_trace, str):
        ctx.transmission = attempt(load_spectroscopy_trace,
                                   config.transmission_trace)
    if isinstance(config.two_tone_map, str):
        ctx.two_tone = attempt(load_two_tone_map, config.two_tone_map)
    return ctx


# qubit metadata key -> whether its value must be positive
_QUBIT_KEYS = {"f_ss": True, "lever_c": True, "v_ss": False, "f_q": True,
              "f_r": True, "kappa": True, "chi": False, "t1": True}


def _config_diagnostics(config: AnalysisConfig) -> list[Diagnostic]:
    """Type and range errors of the config fields themselves."""
    found = []
    for name in ("output_dir", "frequency_series", "transmission_trace",
                 "two_tone_map"):
        value = getattr(config, name)
        if not isinstance(value, str) and (value is not None
                                           or name == "output_dir"):
            found.append((name, f"must be a path string, got {value!r}"))
    if isinstance(config.output_dir, str):
        out = Path(config.output_dir)
        found += [("output_dir", f"{str(p)!r} exists and is not a directory")
                  for p in (out, *out.parents)
                  if p.exists() and not p.is_dir()]
    if not _is_path_list(config.decay_traces):
        found.append(("decay_traces", "must be a list of path strings, got "
                                      f"{config.decay_traces!r}"))
    if isinstance(config.qubit, dict):
        for key, value in config.qubit.items():
            if key not in _QUBIT_KEYS:
                found.append((key, f"unknown qubit key {key!r}; expected "
                                   f"keys from {sorted(_QUBIT_KEYS)}"))
            elif not is_finite_number(value):
                found.append((key, f"qubit metadata {key} must be a finite "
                                   f"number, got {value!r}"))
            elif _QUBIT_KEYS[key] and not value > 0:
                found.append((key, f"qubit metadata {key} must be positive, "
                                   f"got {value}"))
    else:
        found.append(("qubit", f"must be an object, got {config.qubit!r}"))
    if not (isinstance(config.temperatures_k, list)
            and all(is_finite_number(t) and t > 0
                    for t in config.temperatures_k)):
        found.append(("temperatures_k", "must be a list of positive numbers, "
                                        f"got {config.temperatures_k!r}"))
    if not (config.decay_traces or config.frequency_series
            or config.transmission_trace or config.two_tone_map):
        found.append((None, "empty dataset list: no inputs configured"))
    return [Diagnostic("error", message, column=column)
            for column, message in found]


def _is_path_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(p, str) for p in value)


def validate_inputs(config: AnalysisConfig) -> list[Diagnostic]:
    """load_inputs' diagnostics; an empty list means run-ready."""
    return load_inputs(config).diagnostics


def _decay_stage(ctx: StageContext) -> dict | None:
    if not ctx.config.decay_traces:
        return None
    fits: list[dict] = []
    relax_by_condition: dict[tuple, dict] = {}
    # relaxation first: its T1 feeds the echo/CPMG fits at its bias and
    # temperature
    for path, trace, meta in sorted(
            ctx.traces, key=lambda item: item[1].kind != "relaxation"):
        t1 = _t1_for(_condition_of(meta), relax_by_condition,
                     ctx.config.qubit)
        if trace.n_pulses and t1 is None:
            ctx.warn("no T1 available for this bias and no qubit.t1 "
                     "fallback; trace skipped", path)
            continue
        fit = _fit_or_warn(ctx, path, "fit", fit_trace, trace, t1)
        if fit is None:
            continue
        record = _fit_record(path, trace, meta, fit)
        fits.append(record)
        if trace.kind == "relaxation":
            relax_by_condition[_condition_of(record)] = record
    return {"fits": fits,
            "sources": sorted({f["file"] for f in fits}
                              | {str(sidecar_path(f["file"])) for f in fits})}


def _has_t_phi(record: dict) -> bool:
    """Whether a decay fit is an echo or CPMG fit with a nonzero T_phi."""
    return record["n_pulses"] >= 1 and bool(record["params"].get("t_phi"))


def _scaling_stage(ctx: StageContext) -> dict | None:
    by_condition: dict[tuple, list[dict]] = {}
    for record in ctx.sections.get("decay_fits", {"fits": []})["fits"]:
        if _has_t_phi(record):
            by_condition.setdefault(_condition_of(record), []).append(record)
    rows = []
    for (bias, temp), records in sorted(
            by_condition.items(), key=lambda item: (
                item[0][0], -math.inf if item[0][1] is None else item[0][1])):
        points = [(r["n_pulses"], r["params"]["t_phi"]) for r in records]
        if len(points) < 3:
            continue
        # a row names its temperature only when the traces carry one
        where, label = {"bias_mv": bias}, f"bias {bias} mV"
        if temp is not None:
            where["temperature_mk"] = temp
            label += f", {temp} mK"
        scaling = _fit_or_warn(ctx, None, f"scaling at {label}: fit",
                               fit_scaling, points)
        if scaling is None:
            continue
        rows.append({**where, **asdict(scaling), "n_points": len(points)})
    if not rows:
        return None
    return {"fits": rows, "sources": ctx.sections["decay_fits"]["sources"]}


def _psd_stage(ctx: StageContext) -> dict | None:
    qubit = ctx.config.qubit
    disp = None
    if qubit.get("f_ss") and qubit.get("lever_c") is not None:
        disp = QubitDispersion(f_ss=qubit["f_ss"], lever_c=qubit["lever_c"],
                               v_ss=qubit.get("v_ss", 0.0))
    points = {c: [] for c in (*PSD_HEADER, "n_pulses", "bias_mv", "source")}
    box_points = []     # the CPMG estimates, which the power law fits

    def add(point, record):
        for column, value in zip(points, (
                point.freq, point.value, point.units, record["n_pulses"],
                record["bias_mv"], record["file"])):
            points[column].append(value)

    for record in ctx.sections.get("decay_fits", {"fits": []})["fits"]:
        params = record["params"]
        dv = None if disp is None else record["bias_mv"] * 1e-3 - disp.v_ss
        if _has_t_phi(record):
            seq = PulseSequence(n_pulses=record["n_pulses"],
                                tau=params["t_phi"])
            point = reconstruct_psd_point(params["t_phi"], seq)
            box_points.append((point.freq, point.value))
            add(point, record)
            if disp is not None:
                lever = lever_arm(disp, dv)
                if lever != 0.0:
                    add(to_voltage_noise(point, lever), record)
        elif record["kind"] == "relaxation" and params.get("t1"):
            f_q = qubit.get("f_q") or qubit.get("f_ss")
            if disp is not None:
                f_q = qubit_frequency(disp, dv)
            if f_q:
                add(transverse_noise(params["t1"], f_q), record)
    if not points["freq_hz"]:
        return None
    return {"points": points,
            "powerlaw": _fit_or_warn(ctx, None, "psd: power-law fit",
                                     powerlaw_fit, box_points),
            "sources": sorted(set(points["source"]))}


def _lowfreq_stage(ctx: StageContext) -> dict | None:
    path = ctx.config.frequency_series
    if ctx.series is None:
        return None
    spectrum = periodogram(ctx.series)
    return {"points": spectrum_columns(spectrum),
            "powerlaw": _fit_or_warn(ctx, path, "power-law fit", powerlaw_fit,
                                     spectrum),
            "sources": [path]}


def _thermal_stage(ctx: StageContext) -> dict | None:
    qubit = ctx.config.qubit
    if not ctx.config.temperatures_k or any(
            qubit.get(k) is None
            for k in ("f_q", "f_r", "kappa", "chi", "t1")):
        return None
    model = ThermalModel(f_q=qubit["f_q"], f_r=qubit["f_r"],
                         kappa=qubit["kappa"], chi=qubit["chi"],
                         t1_zero=qubit["t1"])
    return {"curves": thermal_curves(model, ctx.config.temperatures_k),
            "sources": []}


def _spectro_stage(ctx: StageContext) -> dict | None:
    config, qubit = ctx.config, ctx.config.qubit
    section: dict = {"sources": []}
    if ctx.transmission is not None and qubit.get("f_r") \
            and qubit.get("kappa"):
        fit = _fit_or_warn(ctx, config.transmission_trace, "transmission fit",
                           fit_transmission, ctx.transmission,
                           {"f_r": qubit["f_r"], "kappa": qubit["kappa"]})
        if fit is not None:
            section["transmission"] = fit
            section["sources"].append(config.transmission_trace)
    if ctx.two_tone is not None:
        fit = _fit_or_warn(ctx, config.two_tone_map, "dispersion fit",
                           fit_two_tone, ctx.two_tone)
        if fit is not None:
            section["dispersion"] = fit
            section["sources"].append(config.two_tone_map)
    return section if len(section) > 1 else None


# stage name -> (report section key, builder), in run order
STAGES = {
    "decay": ("decay_fits", _decay_stage),
    "scaling": ("scaling", _scaling_stage),
    "psd": ("psd", _psd_stage),
    "lowfreq": ("low_frequency", _lowfreq_stage),
    "thermal": ("thermal", _thermal_stage),
    "spectro": ("spectro", _spectro_stage),
}


def run_pipeline(config: AnalysisConfig) -> ReportBundle:
    """Run every stage in STAGES order; write the report atomically.

    Takes the run's context from load_inputs, which parses the inputs
    once, and raises PipelineError (writing nothing) when it holds errors;
    its warnings, and fits that fail, become the report's warnings.  A
    stage that raises one of FIT_FAILURES loses its section and leaves a
    "stage <name> failed" warning; the other stages still run.
    Provenance hashes exactly the files listed in the sections' sources.
    """
    ctx = load_inputs(config)
    errors = [d for d in ctx.diagnostics if d.severity == "error"]
    if errors:
        raise PipelineError(errors)
    for stage, (key, build) in STAGES.items():
        try:
            section = build(ctx)
        except FIT_FAILURES as exc:
            ctx.warn(f"stage {stage} failed ({type(exc).__name__}: {exc}); "
                     "section omitted")
            continue
        if section is not None:
            ctx.sections[key] = section
    sources = sorted({source for section in ctx.sections.values()
                      for source in section["sources"]})
    ctx.sections["reference_charge_noise"] = {
        "rows": load_charge_noise_table(),
        "sources": [],
        "note": "literature comparison values shipped as package data",
    }

    report = ReportBundle(
        version=__version__,
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        config=config.to_dict(),
        provenance={"inputs": {path: sha256_of(path) for path in sources}},
        sections=ctx.sections,
        warnings=[str(d) for d in ctx.diagnostics],
    )
    _write_outputs(config, report)
    return report


def _write_outputs(config: AnalysisConfig, report: ReportBundle) -> None:
    """report.json, then one CSV of columns per table the report holds.
    Each cell is formatted once: a column the report also holds is
    written to report.json from its CSV cell texts."""
    out, sections = Path(config.output_dir), report.sections
    tables = {}
    if "decay_fits" in sections:
        # coherence_fits.csv header -> key of a decay record or its params
        keys = {"file": "file", "kind": "kind", "n_pulses": "n_pulses",
                "bias_mv": "bias_mv", "t1_s": "t1", "t2_s": "t2",
                "t_phi_s": "t_phi", "stretch": "stretch",
                "amplitude": "amplitude", "offset": "offset",
                "detuning_hz": "detuning"}
        fits = [{**f, **f["params"]} for f in sections["decay_fits"]["fits"]]
        tables["coherence_fits.csv"] = {column: [f[key] for f in fits]
                                        for column, key in keys.items()}
    for name, key in (("psd_points.csv", "psd"),
                      ("periodogram.csv", "low_frequency")):
        if key in sections:
            tables[name] = {c: sections[key]["points"][c] for c in PSD_HEADER}
    if "thermal" in sections:
        tables["thermal_model.csv"] = sections["thermal"]["curves"]
    texts = {id(values): format_cells(values)
             for columns in tables.values() for values in columns.values()}
    report.save(out / "report.json", texts)
    for name, columns in tables.items():
        atomic_write_text(out / name, join_csv(
            {column: texts[id(values)] for column, values in columns.items()}))


def _fit_record(path: str, trace, meta: dict, fit) -> dict:
    params = asdict(fit)
    errors, flags = params.pop("errors"), params.pop("flags")
    return {
        "file": str(path),
        "kind": trace.kind,
        "n_pulses": trace.n_pulses,
        "bias_mv": _bias_of(meta),
        "temperature_mk": meta.get("temperature_mk"),
        "params": params,
        "errors": errors,
        "flags": list(flags),
    }


def _fit_or_warn(ctx: StageContext, path, what: str, fit, *args):
    """fit(*args), or None and a "<what> failed (...)" warning at path."""
    try:
        return fit(*args)
    except FIT_FAILURES as exc:
        ctx.warn(f"{what} failed ({exc})", path)
        return None


def _bias_of(meta: dict) -> float:
    bias = meta.get("bias_mv")
    return 0.0 if bias is None else float(bias)


def _condition_of(meta: dict) -> tuple:
    """(bias_mv, temperature_mk) of a sidecar or a decay record: T1 is
    looked up, and T_phi(N) is fitted, per condition."""
    return _bias_of(meta), meta.get("temperature_mk")


def _t1_for(condition: tuple, relax_by_condition: dict, qubit: dict):
    """T1 of the relaxation fit at this condition, else of the only
    relaxation fit, else qubit.t1 (None when absent)."""
    record = relax_by_condition.get(condition)
    if record is not None:
        return record["params"]["t1"]
    if len(relax_by_condition) == 1:
        return next(iter(relax_by_condition.values()))["params"]["t1"]
    return qubit.get("t1")


def fit_trace(trace: DecayTrace, t1: float | None):
    """The CoherenceFit for the trace's kind; echo and CPMG fits hold T1
    fixed at t1."""
    if trace.kind == "relaxation":
        return fit_relaxation(trace)
    if trace.kind == "ramsey":
        return fit_ramsey(trace)
    return fit_cpmg(trace, t1)


def fit_two_tone(table: np.ndarray) -> dict:
    """Dispersion fit to a two-tone map's ridge, as a JSON-ready dict."""
    return fit_dispersion(_ridge_points(table))


def thermal_curves(model: ThermalModel, temps) -> dict:
    """Columns temp_k (K, as given), t1_s, pe, n_th and gamma_phi."""
    n_th = photon_occupation(model.f_r, temps)
    return {"temp_k": list(temps),
            "t1_s": t1_vs_temperature(model, temps).tolist(),
            "pe": thermal_population(model.f_q, temps).tolist(),
            "n_th": n_th.tolist(),
            "gamma_phi": resonator_dephasing(model, n_th).tolist()}


def spectrum_columns(spectrum: np.ndarray) -> dict:
    """A periodogram's (n, 2) spectrum as PSD table columns."""
    freqs, psd = spectrum.T.tolist()
    return dict(zip(PSD_HEADER, (freqs, psd, [FREQ_NOISE] * len(freqs))))


def _ridge_points(table: np.ndarray) -> list[tuple[float, float]]:
    """Qubit-line points from a two-tone map: per voltage, the frequency
    with the strongest phase response relative to that column's median."""
    points = []
    for voltage in np.unique(table[:, 0]):
        rows = table[table[:, 0] == voltage]
        response = np.abs(rows[:, 2] - np.median(rows[:, 2]))
        points.append((float(voltage), float(rows[np.argmax(response), 1])))
    return points
