"""In-memory span tracer and the per-layer metrics computed from it.

A Tracer wraps public qnl functions where they are called (the module
attribute the caller looks up) and records one span per call: name, start,
end, parent span, op id, an amount (rows, bytes, nfev, points, trajectories
or RNG draws, depending on the layer) and whether the call raised.  Spans
stay in memory until the run ends.  Nothing here runs unless the runner is
asked for a traced run, so end-to-end numbers never pass through it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    amount: int = 0
    failed: bool = False


def _arg(args, kwargs, position, key):
    return args[position] if len(args) > position else kwargs[key]


def _rows(args, kwargs, result):
    if isinstance(result, tuple):            # load_decay_trace: (trace, meta)
        result = result[0]
    for attr in ("times", "timestamps"):
        if hasattr(result, attr):
            return len(getattr(result, attr))
    return len(result)


def _bytes(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "text").encode())


def _nfev(args, kwargs, result):
    return int(result.nfev)


def _points(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 1, "omega")))


def _trajectories(args, kwargs, result):
    return int(_arg(args, kwargs, 3, "n_traj"))


def _draws(args, kwargs, result):
    # two standard normals per rfft bin of the record
    return 2 * (int(_arg(args, kwargs, 2, "n")) // 2 + 1)


# (owner, attribute, span name, amount) for every wrapped call site.  The
# owner is a module, or "module:Class" for a method.
PATCHES = (
    ("qnl.pipeline", "run_pipeline", "pipeline.run", None),
    ("qnl.pipeline", "validate_inputs", "pipeline.validate", None),
    ("qnl.pipeline:ReportBundle", "save", "pipeline.save", None),
    ("qnl.pipeline", "load_decay_trace", "fileio.load", _rows),
    ("qnl.pipeline", "load_frequency_series", "fileio.load", _rows),
    ("qnl.pipeline", "load_spectroscopy_trace", "fileio.load", _rows),
    ("qnl.pipeline", "load_two_tone_map", "fileio.load", _rows),
    ("qnl.pipeline", "load_charge_noise_table", "fileio.load", _rows),
    ("qnl.pipeline", "atomic_write_text", "fileio.write", _bytes),
    ("qnl.fileio", "atomic_write_text", "fileio.write", _bytes),
    ("qnl.pipeline", "sha256_of", "fileio.hash", None),
    ("qnl.pipeline", "fit_relaxation", "decayfit.fit", None),
    ("qnl.pipeline", "fit_ramsey", "decayfit.fit", None),
    ("qnl.pipeline", "fit_cpmg", "decayfit.fit", None),
    ("qnl.pipeline", "fit_scaling", "decayfit.fit", None),
    ("qnl.decayfit", "run_least_squares", "decayfit.lsq", _nfev),
    ("qnl.pipeline", "fit_transmission", "spectro.fit", None),
    ("qnl.pipeline", "fit_dispersion", "spectro.fit", None),
    ("qnl.spectro", "run_least_squares", "spectro.lsq", _nfev),
    ("qnl.pipeline", "photon_occupation", "thermal.call", None),
    ("qnl.pipeline", "t1_vs_temperature", "thermal.call", None),
    ("qnl.pipeline", "thermal_population", "thermal.call", None),
    ("qnl.pipeline", "resonator_dephasing", "thermal.call", None),
    ("qnl.pipeline", "reconstruct_psd_point", "noisespec.reconstruct", None),
    ("qnl.noisespec", "reconstruct_psd_point", "noisespec.reconstruct", None),
    ("qnl.pipeline", "periodogram", "noisespec.periodogram", None),
    ("qnl.pipeline", "powerlaw_fit", "noisespec.powerlaw", None),
    ("qnl.noisespec", "first_harmonic_peak", "ddfilter.peak", None),
    ("qnl.ddfilter", "filter_value", "ddfilter.filter", _points),
    ("qnl.noisespec", "filter_value", "ddfilter.filter", _points),
    ("qnl.mcsim", "filter_value", "ddfilter.filter", _points),
    ("qnl.mcsim", "dephasing_integral", "mcsim.chi", None),
    ("qnl.mcsim", "simulate_sequence", "mcsim.simulate", _trajectories),
    ("qnl.mcsim", "synthesize_noise", "mcsim.synth", _draws),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Context manager that installs the PATCHES wrappers and records spans.

    Set `op` to the current op id before each op.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, amount=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if amount is not None:
                span.amount = amount(args, kwargs, result)
            return result
        return traced

    def __enter__(self):
        for path, attr, name, amount in PATCHES:
            owner = _owner(path)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, amount))
            self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path) -> None:
        path.write_text(json.dumps(
            {"fields": list(Span.__dataclass_fields__),
             "spans": [list(vars(span).values()) for span in self.spans]}))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


# per_layer metric -> unit; every value is a mean per op
LAYER_UNITS = {
    "pipeline.validate_ms": "ms/op", "pipeline.self_ms": "ms/op",
    "pipeline.save_ms": "ms/op", "pipeline.report_bytes": "B/op",
    "fileio.load_calls": "count/op", "fileio.load_ms": "ms/op",
    "fileio.rows_loaded": "count/op", "fileio.write_calls": "count/op",
    "fileio.write_ms": "ms/op", "fileio.bytes_written": "B/op",
    "fileio.hash_ms": "ms/op",
    "decayfit.fit_calls": "count/op", "decayfit.fit_ms": "ms/op",
    "decayfit.nfev": "count/op", "decayfit.fit_failed": "count/op",
    "spectro.fit_calls": "count/op", "spectro.fit_ms": "ms/op",
    "spectro.nfev": "count/op", "thermal.ms": "ms/op",
    "noisespec.reconstruct_calls": "count/op",
    "noisespec.reconstruct_self_ms": "ms/op",
    "noisespec.periodogram_ms": "ms/op", "noisespec.powerlaw_ms": "ms/op",
    "ddfilter.peak_calls": "count/op", "ddfilter.peak_self_ms": "ms/op",
    "ddfilter.filter_calls_per_peak": "count",
    "ddfilter.filter_calls": "count/op", "ddfilter.filter_points": "count/op",
    "ddfilter.filter_ms": "ms/op",
    "mcsim.chi_calls": "count/op", "mcsim.chi_self_ms": "ms/op",
    "mcsim.chi_grid_points": "count/op",
    "mcsim.simulate_calls": "count/op", "mcsim.traj": "count/op",
    "mcsim.simulate_self_ms": "ms/op", "mcsim.synth_ms": "ms/op",
    "mcsim.us_per_traj": "us", "mcsim.rng_draws": "count/op",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans: list[Span], n_ops: int,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-op means of every LAYER_UNITS metric from one traced run."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)      # seconds inside spans of that name
    own = defaultdict(float)        # self seconds
    amount = defaultdict(int)
    failed = defaultdict(int)
    # filter_value calls and points made directly under a peak or chi span
    under = defaultdict(int)
    for span, self_s in zip(spans, selfs):
        calls[span.name] += 1
        total[span.name] += span.end - span.start
        own[span.name] += self_s
        amount[span.name] += span.amount
        failed[span.name] += span.failed
        if span.parent is not None:
            parent = spans[span.parent].name
            under[parent, span.name, "calls"] += 1
            under[parent, span.name, "amount"] += span.amount

    def per_op(value):
        return value / n_ops

    def ms(value):
        return 1e3 * value / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "pipeline.validate_ms": ms(total["pipeline.validate"]),
        "pipeline.self_ms": ms(own["pipeline.run"]),
        "pipeline.save_ms": ms(total["pipeline.save"]),
        "pipeline.report_bytes": per_op(
            under["pipeline.save", "fileio.write", "amount"]),
        "fileio.load_calls": per_op(calls["fileio.load"]),
        "fileio.load_ms": ms(total["fileio.load"]),
        "fileio.rows_loaded": per_op(amount["fileio.load"]),
        "fileio.write_calls": per_op(calls["fileio.write"]),
        "fileio.write_ms": ms(total["fileio.write"]),
        "fileio.bytes_written": per_op(amount["fileio.write"]),
        "fileio.hash_ms": ms(total["fileio.hash"]),
        "decayfit.fit_calls": per_op(calls["decayfit.fit"]),
        "decayfit.fit_ms": ms(total["decayfit.fit"]),
        "decayfit.nfev": per_op(amount["decayfit.lsq"]),
        "decayfit.fit_failed": per_op(failed["decayfit.fit"]),
        "spectro.fit_calls": per_op(calls["spectro.fit"]),
        "spectro.fit_ms": ms(total["spectro.fit"]),
        "spectro.nfev": per_op(amount["spectro.lsq"]),
        "thermal.ms": ms(total["thermal.call"]),
        "noisespec.reconstruct_calls": per_op(calls["noisespec.reconstruct"]),
        "noisespec.reconstruct_self_ms": ms(own["noisespec.reconstruct"]),
        "noisespec.periodogram_ms": ms(total["noisespec.periodogram"]),
        "noisespec.powerlaw_ms": ms(total["noisespec.powerlaw"]),
        "ddfilter.peak_calls": per_op(calls["ddfilter.peak"]),
        "ddfilter.peak_self_ms": ms(own["ddfilter.peak"]),
        "ddfilter.filter_calls_per_peak": ratio(
            under["ddfilter.peak", "ddfilter.filter", "calls"],
            calls["ddfilter.peak"]),
        "ddfilter.filter_calls": per_op(calls["ddfilter.filter"]),
        "ddfilter.filter_points": per_op(amount["ddfilter.filter"]),
        "ddfilter.filter_ms": ms(total["ddfilter.filter"]),
        "mcsim.chi_calls": per_op(calls["mcsim.chi"]),
        "mcsim.chi_self_ms": ms(own["mcsim.chi"]),
        "mcsim.chi_grid_points": per_op(
            under["mcsim.chi", "ddfilter.filter", "amount"]),
        "mcsim.simulate_calls": per_op(calls["mcsim.simulate"]),
        "mcsim.traj": per_op(amount["mcsim.simulate"]),
        "mcsim.simulate_self_ms": ms(own["mcsim.simulate"]),
        "mcsim.synth_ms": ms(total["mcsim.synth"]),
        "mcsim.us_per_traj": 1e6 * ratio(total["mcsim.simulate"],
                                         amount["mcsim.simulate"]),
        "mcsim.rng_draws": per_op(amount["mcsim.synth"]),
        "trace.overhead_ratio": overhead_ratio,
    }
