"""CSV/JSON file formats and atomic writes.

Formats, one header per data kind:

- decay trace:       ``tau_s,pe`` plus a JSON sidecar (same stem, .json)
                     with ``{kind, n_pulses, bias_mv, temperature_mk}``
- spectroscopy:      ``freq_hz,amp``
- two-tone map:      ``voltage_v,freq_hz,phase_rad``
- PSD table:         ``freq_hz,psd,units``, one units tag per table
- frequency series:  ``t_s,freq_hz``

Every input-file loader reads its file once and builds the domain object;
any fault in a file raises `InputError`, a ValueError carrying a
`Diagnostic` with file, row and column.  Minimum data rows per schema:
decay trace 2, spectroscopy 20, two-tone map 3, PSD table 1, frequency
series 8.  A blank line is a ragged row, so a row number is always the
file's line number.

One reader, `_read_cells`, splits every input table, and `_to_floats`
converts its numeric cells in one numpy call.  Cells are plain text with no
quoting: a row ends at LF, CRLF or a lone CR, every "," splits a cell, and
a quote is part of its cell.  Rows or cells are walked one by one only
after a check fails, to name the first ragged row or the first non-numeric
or non-finite cell.

A written table is one dict of equal-length columns whose keys are its
header (`format_csv`).  `format_cells` turns a column into the cell texts
csv.writer would write, and `join_csv` joins them, so a caller that also
needs the texts elsewhere formats each cell once.  Every writer goes
through an atomic temp-file + rename so partially written outputs never
appear under the final name.
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

from .decayfit import _POPULATION_BOUNDS, DecayTrace
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
        place = ":".join(part for part in (
            self.file,
            None if self.row is None else f"row {self.row}",
            None if self.column is None else f"column {self.column}")
            if part)
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


def _read_table(path, header: list[str], min_rows: int) -> np.ndarray:
    """(n, width) float array of a numeric schema's data rows."""
    return _to_floats(_read_cells(path, header), path, header, min_rows)


# str.translate table that keeps only the "," and "\n" separators of
# ASCII text (anything else left over fails the layout check)
_SEPARATORS_ONLY = dict.fromkeys(c for c in range(128) if chr(c) not in ",\n")


def _read_cells(path, header: list[str]) -> list[str]:
    """The data cells, row by row, under an exact header; InputError on an
    unreadable or empty file, a wrong header or a ragged row."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"unreadable file: {exc}", path) from None
    if not text:
        raise InputError("empty file", path)
    text = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n")
    first, has_rows, body = text.partition("\n")
    names = first.split(",") if first else []
    if [name.strip() for name in names] != header:
        raise InputError(f"expected header {','.join(header)}, got {first}",
                         path, column=names[0] if names else None)
    if not has_rows:
        return []
    width = len(header)
    if body.translate(_SEPARATORS_ONLY) != \
            "\n".join(["," * (width - 1)] * (body.count("\n") + 1)):
        for line, row in enumerate(body.split("\n"), start=2):
            got = row.count(",") + 1 if row else 0
            if got != width:
                raise InputError(f"expected {width} cells, got {got}", path,
                                 row=line)
    return body.replace("\n", ",").split(",")


def _to_floats(cells, path, header: list[str], min_rows: int) -> np.ndarray:
    """(n, width) float array of the cells; InputError at the first
    non-numeric or non-finite cell, or on fewer than `min_rows` rows."""
    try:
        table = np.array(cells, dtype=float)
    except ValueError:
        table = None
    if table is None or not np.isfinite(table).all():  # locate the fault
        width, values = len(header), []
        for index, text in enumerate(cells):
            row, column = index // width + 2, header[index % width]
            try:
                values.append(float(text))
            except ValueError:
                raise InputError(f"non-numeric value {text!r}", path, row=row,
                                 column=column) from None
            if not math.isfinite(values[-1]):
                raise InputError(f"non-finite value {text!r}", path, row=row,
                                 column=column)
        table = np.array(values)
    table = table.reshape(-1, len(header))
    if len(table) < min_rows:
        raise InputError(f"need at least {min_rows} data rows, got "
                         f"{len(table) or 'no data rows'}", path)
    return table


def format_csv(columns: dict) -> str:
    """CSV text of equal-length columns; the keys are the header."""
    return join_csv({key: format_cells(values)
                     for key, values in columns.items()})


def format_cells(values) -> list[str]:
    """The CSV text of each cell of a sequence, as csv.writer writes it: a
    float's repr (np.float64's too), nothing for None, str() of anything
    else, and quoted, its quotes doubled, where that holds a comma, a
    quote, a CR or an LF."""
    try:
        return list(map(float.__repr__, values))
    except TypeError:
        return [_cell_text(value) for value in values]


def _cell_text(value) -> str:
    if isinstance(value, float):
        return float.__repr__(value)
    if value is None:
        return ""
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def join_csv(cells: dict) -> str:
    """CSV text of equal-length columns of format_cells texts; the keys are
    the header."""
    lines = [",".join(format_cells(list(cells))),
             *map(",".join, zip(*cells.values(), strict=True))]
    if len(cells) == 1:     # a lone empty cell is written as a quoted one
        lines = ['""' if line == "" else line for line in lines]
    return "\n".join(lines) + "\n"


def load_decay_trace(path) -> tuple[DecayTrace, dict]:
    """Read a tau_s,pe trace and its JSON sidecar; returns (trace, meta).

    A population outside decayfit's tolerance raises a warning-severity
    InputError: the trace is unusable but the rest of a batch is not.
    """
    data = _read_table(path, DECAY_HEADER, 2)
    bad = np.flatnonzero(np.diff(data[:, 0]) <= 0) + 1
    if bad.size:
        raise InputError(f"non-monotone tau_s at value {data[bad[0], 0]}",
                         path, row=int(bad[0]) + 2, column="tau_s")
    if data[0, 0] < 0:      # tau_s increases, so row 2 holds the least
        raise InputError(f"negative tau_s at value {data[0, 0]}", path,
                         row=2, column="tau_s")
    meta = _read_sidecar(sidecar_path(path))
    lo, hi = _POPULATION_BOUNDS
    bad = np.flatnonzero((data[:, 1] < lo) | (data[:, 1] > hi))
    if bad.size:
        raise InputError(f"population {data[bad[0], 1]} outside the [{lo}, "
                         f"{hi}] tolerance; trace will be skipped", path,
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
    n_pulses = meta.get("n_pulses", 0)
    if not isinstance(n_pulses, int) or isinstance(n_pulses, bool):
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
    return _read_table(path, SPECTRUM_HEADER, 20)


def load_two_tone_map(path) -> np.ndarray:
    """(n, 3) array of (voltage_v, freq_hz, phase_rad)."""
    return _read_table(path, TWO_TONE_HEADER, 3)


def load_frequency_series(path) -> FrequencySeries:
    data = _read_table(path, SERIES_HEADER, 8)
    try:
        return FrequencySeries(timestamps=data[:, 0], freqs=data[:, 1])
    except ValueError as exc:
        raise InputError(str(exc), path, column="t_s") from None


def write_frequency_series(path, series: FrequencySeries) -> None:
    atomic_write_text(path, format_csv(dict(zip(SERIES_HEADER, (
        series.timestamps.tolist(), series.freqs.tolist())))))


def load_psd_csv(path) -> np.ndarray:
    """(n, 2) array of (freq_hz, psd) from a table with one units tag; a
    row whose units differ from row 2's is reported at its units cell."""
    cells = _read_cells(path, PSD_HEADER)
    units = [tag.strip() for tag in cells[2::3]]
    del cells[2::3]
    table = _to_floats(cells, path, PSD_HEADER[:2], 1)
    for line, (row, tag) in enumerate(zip(table.tolist(), units), start=2):
        try:
            PSDPoint(*row, tag)
        except ValueError as exc:
            raise InputError(str(exc), path, row=line) from None
    for line, tag in enumerate(units, start=2):
        if tag != units[0]:
            raise InputError(f"units {tag!r} differ from row 2's "
                             f"{units[0]!r}; a power-law fit needs one "
                             "units tag", path, row=line, column="units")
    return table


def load_charge_noise_table() -> list[dict]:
    """Literature voltage-noise comparison rows shipped as package data."""
    text = (resources.files("qnl") / "reference" /
            "charge_noise_table.csv").read_text()
    return list(csv.DictReader(io.StringIO(text)))
