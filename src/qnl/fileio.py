"""CSV/JSON file formats and atomic writes.

Formats, one header per data kind:

- decay trace:       ``tau_s,pe`` plus a JSON sidecar (same stem, .json)
                     with ``{kind, n_pulses, bias_mv, temperature_mk}``
- spectroscopy:      ``freq_hz,amp``
- two-tone map:      ``voltage_v,freq_hz,phase_rad``
- PSD table:         ``freq_hz,psd,units``
- frequency series:  ``t_s,freq_hz``

Every input-file loader reads through one parser, `_read_rows`, and builds
the domain object; any fault in a file raises `InputError`, a ValueError
carrying a `Diagnostic` with file, row and column.  Minimum data rows per
schema: decay trace 2, spectroscopy 20, two-tone map 3, PSD table 1,
frequency series 8.  A blank line is a ragged row, so a row number is
always the file's line number.

A written table is one dict of equal-length columns whose keys are its
header (`format_csv`); every writer goes through an atomic temp-file +
rename so partially written outputs never appear under the final name.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .decayfit import DecayTrace
from .noisespec import FrequencySeries, PSDPoint

DECAY_HEADER = ["tau_s", "pe"]
SPECTRUM_HEADER = ["freq_hz", "amp"]
TWO_TONE_HEADER = ["voltage_v", "freq_hz", "phase_rad"]
PSD_HEADER = ["freq_hz", "psd", "units"]
SERIES_HEADER = ["t_s", "freq_hz"]


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding; severity is 'error' or 'warning'."""

    severity: str
    message: str
    file: str | None = None
    row: int | None = None
    column: str | None = None

    def __str__(self):
        place = self.file or ""
        if self.row is not None:
            place += f":row {self.row}"
        if self.column is not None:
            place += f":column {self.column}"
        prefix = f"[{self.severity}] "
        return prefix + (f"{place}: " if place else "") + self.message


class InputError(ValueError):
    """A file that cannot become a domain object; carries its Diagnostic."""

    def __init__(self, message, file, row=None, column=None,
                 severity="error"):
        self.diagnostic = Diagnostic(severity, message, file=str(file),
                                     row=row, column=column)
        super().__init__(str(self.diagnostic))


def atomic_write_text(path, text: str) -> None:
    """Write text to `path` via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sidecar_path(trace_path) -> Path:
    return Path(trace_path).with_suffix(".json")


def _read_rows(path, header: list[str], min_rows: int) -> list[list]:
    """Data rows under an exact header; numeric cells become floats and
    "units" cells stay text.  Raises InputError on an empty or unreadable
    file, a wrong header, a ragged row, a non-numeric or non-finite cell,
    or fewer than `min_rows` rows."""
    rows = []
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            first = next(reader, None)
            if first is None:
                raise InputError("empty file", path)
            if [c.strip() for c in first] != header:
                raise InputError(f"expected header {','.join(header)}, "
                                 f"got {','.join(first)}", path,
                                 column=first[0] if first else None)
            for line, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise InputError(f"expected {len(header)} cells, got "
                                     f"{len(row)}", path, row=line)
                rows.append([_cell(text, path, line, column)
                             for text, column in zip(row, header)])
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"unreadable file: {exc}", path) from None
    if len(rows) < min_rows:
        raise InputError(f"need at least {min_rows} data rows, got "
                         f"{len(rows) or 'no data rows'}", path)
    return rows


def _cell(text: str, path, line: int, column: str):
    if column == "units":
        return text.strip()
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"non-numeric value {text!r}", path, row=line,
                         column=column) from None
    if not math.isfinite(value):
        raise InputError(f"non-finite value {text!r}", path, row=line,
                         column=column)
    return value


def format_csv(columns: dict) -> str:
    """CSV text of equal-length columns; the keys are the header."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*columns.values(), strict=True))
    return buffer.getvalue()


def load_decay_trace(path) -> tuple[DecayTrace, dict]:
    """Read a tau_s,pe trace and its JSON sidecar; returns (trace, meta).

    A population outside [-0.1, 1.1] raises a warning-severity InputError:
    the trace is unusable but the rest of a batch is not.
    """
    data = np.array(_read_rows(path, DECAY_HEADER, 2))
    bad = np.flatnonzero(np.diff(data[:, 0]) <= 0) + 1
    if bad.size:
        raise InputError(f"non-monotone tau_s at value {data[bad[0], 0]}",
                         path, row=int(bad[0]) + 2, column="tau_s")
    if data[0, 0] < 0:      # tau_s increases, so row 2 holds the least
        raise InputError(f"negative tau_s at value {data[0, 0]}", path,
                         row=2, column="tau_s")
    meta = _read_sidecar(sidecar_path(path))
    bad = np.flatnonzero((data[:, 1] < -0.1) | (data[:, 1] > 1.1))
    if bad.size:
        raise InputError(f"population {data[bad[0], 1]} outside the "
                         "[-0.1, 1.1] tolerance; trace will be skipped", path,
                         row=int(bad[0]) + 2, column="pe", severity="warning")
    try:
        trace = DecayTrace(times=data[:, 0], populations=data[:, 1],
                           kind=meta.get("kind"),
                           n_pulses=meta.get("n_pulses", 0))
    except ValueError as exc:
        raise InputError(str(exc), sidecar_path(path)) from None
    return trace, meta


def _read_sidecar(meta_path: Path) -> dict:
    try:
        with open(meta_path) as handle:
            meta = json.load(handle)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read JSON sidecar: {exc}",
                         meta_path) from None
    if not isinstance(meta, dict):
        raise InputError("sidecar must be a JSON object", meta_path)
    if not isinstance(meta.get("n_pulses", 0), int):
        raise InputError(f"n_pulses must be an integer, got "
                         f"{meta['n_pulses']!r}", meta_path,
                         column="n_pulses")
    for key in ("bias_mv", "temperature_mk"):
        value = meta.get(key)
        if value is not None and not is_finite_number(value):
            raise InputError(f"{key} must be a finite number or null, got "
                             f"{value!r}", meta_path, column=key)
    return meta


def is_finite_number(value) -> bool:
    """A finite int or float from JSON (bool excluded)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def write_decay_trace(path, trace: DecayTrace, bias_mv: float = 0.0,
                      temperature_mk: float | None = None) -> None:
    atomic_write_text(path, format_csv(dict(zip(DECAY_HEADER, (
        trace.times.tolist(), trace.populations.tolist())))))
    meta = {"kind": trace.kind, "n_pulses": trace.n_pulses,
            "bias_mv": bias_mv, "temperature_mk": temperature_mk}
    atomic_write_text(sidecar_path(path), json.dumps(meta, indent=1) + "\n")


def load_spectroscopy_trace(path) -> np.ndarray:
    """(n, 2) array of (freq_hz, amp)."""
    return np.array(_read_rows(path, SPECTRUM_HEADER, 20))


def load_two_tone_map(path) -> np.ndarray:
    """(n, 3) array of (voltage_v, freq_hz, phase_rad)."""
    return np.array(_read_rows(path, TWO_TONE_HEADER, 3))


def load_frequency_series(path) -> FrequencySeries:
    data = np.array(_read_rows(path, SERIES_HEADER, 8))
    try:
        return FrequencySeries(timestamps=data[:, 0], freqs=data[:, 1])
    except ValueError as exc:
        raise InputError(str(exc), path, column="t_s") from None


def write_frequency_series(path, series: FrequencySeries) -> None:
    atomic_write_text(path, format_csv(dict(zip(SERIES_HEADER, (
        series.timestamps.tolist(), series.freqs.tolist())))))


def load_psd_csv(path) -> list[PSDPoint]:
    points = []
    for line, row in enumerate(_read_rows(path, PSD_HEADER, 1), start=2):
        try:
            points.append(PSDPoint(*row))
        except ValueError as exc:
            raise InputError(str(exc), path, row=line) from None
    return points


def load_charge_noise_table() -> list[dict]:
    """Literature voltage-noise comparison rows shipped as package data."""
    text = (resources.files("qnl") / "reference" /
            "charge_noise_table.csv").read_text()
    return list(csv.DictReader(io.StringIO(text)))
