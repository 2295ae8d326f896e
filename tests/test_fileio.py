import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnl.decayfit import DecayTrace
from qnl.fileio import (DECAY_HEADER, PSD_HEADER, SERIES_HEADER,
                        TWO_TONE_HEADER, Diagnostic, InputError, _read_table,
                        atomic_write_text,
                        format_csv, load_charge_noise_table, load_decay_trace,
                        load_frequency_series, load_psd_csv,
                        load_spectroscopy_trace, load_two_tone_map,
                        sha256_of, sidecar_path, write_decay_trace,
                        write_frequency_series)
from qnl.noisespec import FrequencySeries, PSDPoint
from qnl.pipeline import thermal_curves
from qnl.thermal import (ThermalModel, photon_occupation, resonator_dephasing,
                         t1_vs_temperature, thermal_population)


class TestAtomicWrite:
    def test_creates_parents_and_content(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_files_left(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x" * 10000)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_sha256_of_known_content(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"abc")
    # sha256 of the three ascii bytes "abc"
    assert sha256_of(p) == ("ba7816bf8f01cfea414140de5dae2223"
                            "b00361a396177a9cb410ff61f20015ad")


def test_sidecar_path_swaps_suffix(tmp_path):
    assert sidecar_path("runs/q1_echo.csv").name == "q1_echo.json"
    assert sidecar_path(tmp_path / "t.csv") == tmp_path / "t.json"


class TestDecayTraceIO:
    def trace(self):
        t = np.linspace(1e-6, 30e-6, 7)
        return DecayTrace(times=t, populations=np.linspace(0.9, 0.1, 7),
                          kind="cpmg", n_pulses=4)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_decay_trace(path, self.trace(), bias_mv=1.5,
                          temperature_mk=35.0)
        loaded, meta = load_decay_trace(path)
        np.testing.assert_array_equal(loaded.times, self.trace().times)
        np.testing.assert_array_equal(loaded.populations,
                                      self.trace().populations)
        assert loaded.kind == "cpmg"
        assert loaded.n_pulses == 4
        assert meta["bias_mv"] == 1.5
        assert meta["temperature_mk"] == 35.0

    def test_header_written(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_decay_trace(path, self.trace())
        assert path.read_text().splitlines()[0] == ",".join(DECAY_HEADER)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_decay_trace(path, self.trace())
        sidecar_path(path).unlink()
        with pytest.raises(InputError, match="sidecar"):
            load_decay_trace(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time,prob\n1e-6,0.9\n")
        sidecar_path(path).write_text('{"kind": "ramsey"}')
        with pytest.raises(ValueError, match="tau_s,pe"):
            load_decay_trace(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("")
        sidecar_path(path).write_text('{"kind": "ramsey"}')
        with pytest.raises(ValueError, match="empty"):
            load_decay_trace(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("tau_s,pe\n")
        sidecar_path(path).write_text('{"kind": "ramsey"}')
        with pytest.raises(ValueError, match="no data rows"):
            load_decay_trace(path)

    def test_sidecar_defaults_n_pulses(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("tau_s,pe\n1e-6,0.9\n2e-6,0.8\n3e-6,0.7\n")
        sidecar_path(path).write_text(json.dumps({"kind": "ramsey"}))
        trace, _ = load_decay_trace(path)
        assert trace.n_pulses == 0


class TestPSDTableIO:
    points = [PSDPoint(freq=1e3, value=2.5e8, units="freq_noise"),
              PSDPoint(freq=1e4, value=3.1e7, units="freq_noise"),
              PSDPoint(freq=1e5, value=4.0e-6, units="freq_noise")]
    text = format_csv(dict(zip(PSD_HEADER, zip(*(
        (p.freq, p.value, p.units) for p in points)))))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "psd.csv"
        path.write_text(self.text)
        table = load_psd_csv(path)
        assert table.shape == (3, 2)
        assert table.tolist() == [[p.freq, p.value] for p in self.points]

    def test_mixed_units_located(self, tmp_path):
        path = tmp_path / "psd.csv"
        path.write_text(format_csv(dict(zip(PSD_HEADER, (
            [1e3, 1e4, 1e5], [2.5e8, 3.1e7, 4.0e-6],
            ["freq_noise", "freq_noise", "voltage_noise"])))))
        with pytest.raises(InputError) as info:
            load_psd_csv(path)
        assert str(info.value) == (
            f"[error] {path}:row 4:column units: units 'voltage_noise' "
            "differ from row 2's 'freq_noise'; a power-law fit needs one "
            "units tag")

    def test_header(self):
        assert self.text.splitlines()[0] == ",".join(PSD_HEADER)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "psd.csv"
        path.write_text("f,s,u\n1.0,2.0,x\n")
        with pytest.raises(ValueError, match="freq_hz,psd,units"):
            load_psd_csv(path)

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "psd.csv"
        path.write_text("freq_hz,psd,units\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_psd_csv(path)


class TestFrequencySeriesIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        series = FrequencySeries(timestamps=np.arange(64) * 0.25,
                                 freqs=np.sin(np.arange(64.0)) * 1e5)
        write_frequency_series(path, series)
        loaded = load_frequency_series(path)
        np.testing.assert_array_equal(loaded.timestamps, series.timestamps)
        np.testing.assert_array_equal(loaded.freqs, series.freqs)

    def test_header(self, tmp_path):
        path = tmp_path / "series.csv"
        series = FrequencySeries(timestamps=np.arange(8) * 1.0,
                                 freqs=np.zeros(8))
        write_frequency_series(path, series)
        assert path.read_text().splitlines()[0] == ",".join(SERIES_HEADER)


def test_thermal_csv_header_and_rows():
    model = ThermalModel(f_q=5.065e9, f_r=5.668e9, kappa=2.4e6, chi=-3.8e5,
                         t1_zero=11.6e-6)
    lines = format_csv(thermal_curves(model, [0.05, 0.10])).splitlines()
    assert lines[0] == "temp_k,t1_s,pe,n_th,gamma_phi"
    assert len(lines) == 3
    n_th = photon_occupation(model.f_r, 0.05)
    assert [float(c) for c in lines[1].split(",")] == \
        [0.05, t1_vs_temperature(model, 0.05),
         thermal_population(model.f_q, 0.05), n_th,
         resonator_dephasing(model, n_th)]


def test_format_csv_writes_columns_under_their_keys():
    text = format_csv({"a": [1.5, 2e-06], "b": ["x", None]})
    assert text == "a,b\n1.5,x\n2e-06,\n"
    assert format_csv({"a": [], "b": []}) == "a,b\n"


def _csv_writer_text(columns: dict) -> str:
    """The oracle: csv.writer's text of the table, each row ended by LF.
    Rows are written with the terminator CRLF and cut back to LF, so that
    csv.writer quotes a cell holding a lone CR (with LF as its terminator,
    Python 3.11's does not, and a reader that ends a row at a lone CR, as
    fileio's does, would split that row)."""
    lines = []
    for row in [list(columns), *zip(*columns.values())]:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")
    return "".join(lines)


_TEXT = st.text(alphabet=st.sampled_from('ab ,"\r\n'), max_size=5)
_CELL = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf]),
    st.integers(), st.none(), _TEXT)


@st.composite
def _tables(draw):
    keys = draw(st.lists(_TEXT, max_size=3, unique=True))
    rows = draw(st.integers(0, 4))
    return {key: draw(st.lists(_CELL, min_size=rows, max_size=rows))
            for key in keys}


@settings(max_examples=300, deadline=None)
@given(columns=_tables())
def test_format_csv_is_csv_writers_text(columns):
    assert format_csv(columns) == _csv_writer_text(columns)


def test_format_csv_rejects_ragged_columns():
    with pytest.raises(ValueError):
        format_csv({"a": [1.0, 2.0], "b": [1.0]})


def test_load_spectroscopy_trace(tmp_path):
    path = tmp_path / "s21.csv"
    path.write_text("freq_hz,amp\n" + "".join(
        f"{5.6e9 + 1e6 * i!r},{0.1 + 0.04 * i!r}\n" for i in range(20)))
    data = load_spectroscopy_trace(path)
    assert data.shape == (20, 2)
    assert data[1, 1] == 0.1 + 0.04


def test_load_two_tone_map(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("voltage_v,freq_hz,phase_rad\n"
                    "0.001,5.0e9,0.02\n0.001,5.1e9,0.90\n0.002,5.0e9,0.01\n")
    data = load_two_tone_map(path)
    assert data.shape == (3, 3)
    np.testing.assert_allclose(data[:, 0], [0.001, 0.001, 0.002])


def test_non_numeric_cell_raises(tmp_path):
    path = tmp_path / "s21.csv"
    path.write_text("freq_hz,amp\n5.6e9,peak\n")
    with pytest.raises(ValueError):
        load_spectroscopy_trace(path)


class TestChargeNoiseTable:
    def test_rows_and_fields(self):
        rows = load_charge_noise_table()
        assert len(rows) == 10
        assert {"material_platform", "qubit_type", "sv_min_uv2_hz",
                "sv_max_uv2_hz", "reference"} <= set(rows[0])

    def test_platforms_present(self):
        platforms = {r["material_platform"] for r in load_charge_noise_table()}
        assert "Neon" in platforms
        assert any("Si" in p for p in platforms)

    def test_numeric_columns_parse(self):
        for row in load_charge_noise_table():
            lo = float(row["sv_min_uv2_hz"])
            hi = float(row["sv_max_uv2_hz"])
            assert 0 < lo <= hi


@pytest.mark.parametrize("body, row, column, message", [
    ("tau_s,pe\n1e-6,0.9\n2e-6\n", 3, None, "expected 2 cells, got 1"),
    ("tau_s,pe\n1e-6,0.9\n\n2e-6,0.5\n", 3, None, "expected 2 cells, got 0"),
    ("tau_s,pe\n1e-6,0.9\n2e-6,nan\n", 3, "pe", "non-finite value 'nan'"),
    ("tau_s,pe\n1e-6,0.9\n2e-6,-inf\n", 3, "pe", "non-finite"),
    ("tau_s,pe\n1e-6,0.9\nx,0.5\n", 3, "tau_s", "non-numeric value 'x'"),
    ("tau_s,pe\n2e-6,0.9\n1e-6,0.5\n", 3, "tau_s", "non-monotone"),
])
def test_read_errors_are_located(tmp_path, body, row, column, message):
    path = tmp_path / "trace.csv"
    path.write_text(body)
    sidecar_path(path).write_text('{"kind": "ramsey"}')
    with pytest.raises(InputError, match=message) as info:
        load_decay_trace(path)
    diag = info.value.diagnostic
    assert (diag.severity, diag.file, diag.row, diag.column) == \
        ("error", str(path), row, column)


def test_non_monotone_message_prints_the_plain_value(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("tau_s,pe\n1e-6,0.9\n3e-6,0.5\n2e-6,0.4\n")
    sidecar_path(path).write_text('{"kind": "relaxation"}')
    with pytest.raises(InputError) as info:
        load_decay_trace(path)
    assert str(info.value) == (f"[error] {path}:row 4:column tau_s: "
                               "non-monotone tau_s at value 2e-06")


@pytest.mark.parametrize("key", ["bias_mv", "temperature_mk"])
def test_sidecar_numbers_are_located(tmp_path, key):
    path = tmp_path / "trace.csv"
    path.write_text("tau_s,pe\n1e-6,0.9\n2e-6,0.5\n")
    sidecar_path(path).write_text(json.dumps({"kind": "ramsey",
                                              key: {"x": [1]}}))
    with pytest.raises(InputError) as info:
        load_decay_trace(path)
    diag = info.value.diagnostic
    assert (diag.file, diag.column) == (str(sidecar_path(path)), key)
    assert diag.message == (f"{key} must be a finite number or null, got "
                            "{'x': [1]}")


@pytest.mark.parametrize("sidecar, message", [
    ('["ramsey"]', "must be a JSON object"),
    ('{"kind": ', "cannot read JSON sidecar"),
    ('{"kind": "cpmg", "n_pulses": "x"}', "n_pulses must be an integer"),
    ('{"kind": "echo", "n_pulses": 2}', "n_pulses=1"),
    ('{"kind": "hahn"}', "kind must be one of"),
    ('{"kind": "ramsey", "bias_mv": "2"}', "bias_mv must be a finite"),
    ('{"kind": "echo", "n_pulses": true}', "n_pulses must be an integer"),
])
def test_bad_sidecar_is_an_input_error(tmp_path, sidecar, message):
    path = tmp_path / "trace.csv"
    path.write_text("tau_s,pe\n1e-6,0.9\n2e-6,0.5\n")
    sidecar_path(path).write_text(sidecar)
    with pytest.raises(InputError, match=message) as info:
        load_decay_trace(path)
    assert info.value.diagnostic.file == str(sidecar_path(path))


def test_population_out_of_tolerance_is_a_warning(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("tau_s,pe\n1e-6,0.9\n2e-6,1.5\n")
    sidecar_path(path).write_text('{"kind": "ramsey"}')
    with pytest.raises(InputError) as info:
        load_decay_trace(path)
    diag = info.value.diagnostic
    assert (diag.severity, diag.row, diag.column) == ("warning", 3, "pe")


def test_spectroscopy_needs_20_rows(tmp_path):
    path = tmp_path / "s21.csv"
    path.write_text("freq_hz,amp\n" + "5.6e9,0.1\n" * 19)
    with pytest.raises(InputError, match="at least 20 data rows, got 19"):
        load_spectroscopy_trace(path)


def test_series_errors_point_at_timestamps(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("t_s,freq_hz\n" + "".join(
        f"{t!r},5e9\n" for t in [0.0, 1.0, 2.0, 3.5, 4.0, 5.0, 6.0, 7.0]))
    with pytest.raises(InputError, match="uniform") as info:
        load_frequency_series(path)
    assert info.value.diagnostic.column == "t_s"


def test_psd_row_errors_are_located(tmp_path):
    path = tmp_path / "psd.csv"
    path.write_text("freq_hz,psd,units\n1.0,2.0,freq_noise\n2.0,1.0,Hz\n")
    with pytest.raises(InputError, match="unknown units tag") as info:
        load_psd_csv(path)
    assert info.value.diagnostic.row == 3


def _loaded(path, header, min_rows):
    try:
        return _read_table(path, header, min_rows)
    except InputError as exc:
        return exc.diagnostic


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(header=st.sampled_from([DECAY_HEADER, TWO_TONE_HEADER]),
       rows=st.lists(st.lists(_FINITE, min_size=3, max_size=3), min_size=1,
                     max_size=12),
       fmt=st.sampled_from([repr, "{:.17g}".format, "{:e}".format]),
       end=st.sampled_from(["\n", "\r\n", "\r"]), last=st.booleans())
def test_reader_matches_float_of_each_cell(tmp_path_factory, header, rows,
                                           fmt, end, last):
    cells = [[fmt(x) for x in row[:len(header)]] for row in rows]
    text = end.join([",".join(header)] + [",".join(row) for row in cells])
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_bytes((text + (end if last else "")).encode())
    expected = np.array([[float(cell) for cell in row] for row in cells])
    table = _read_table(path, header, 1)
    assert table.shape == (len(rows), len(header))
    assert table.tobytes() == expected.tobytes()     # bit for bit, -0.0 too


@pytest.mark.parametrize("body, message, row, column", [
    pytest.param("tau_s,pe\n1e-6,0.9\n\n2e-6,0.5\n",
                 "expected 2 cells, got 0", 3, None, id="blank-line"),
    pytest.param("tau_s,pe\n1e-6,0.9\n2e-6,0.5\n\n",
                 "expected 2 cells, got 0", 4, None, id="trailing-blank"),
    pytest.param("tau_s,pe\n1e-6,0.9\n2e-6,0.5,0.1\n",
                 "expected 2 cells, got 3", 3, None, id="extra-cell"),
    pytest.param("tau_s,pe\n1e-6,0.9,\n2e-6,0.5\n",
                 "expected 2 cells, got 3", 2, None, id="empty-cell"),
    pytest.param("tau_s,pe\n1e-6,0.9\n2e-6\n3e-6,0.5,1\n",
                 "expected 2 cells, got 1", 3, None, id="short-then-long"),
    pytest.param("tau_s,pe\n1e-6,nan\n2e-6,0.5\n",
                 "non-finite value 'nan'", 2, "pe", id="nan"),
    pytest.param("tau_s,pe\n1e-6,0.9\n2e-6,-inf\n",
                 "non-finite value '-inf'", 3, "pe", id="minus-inf"),
    pytest.param("tau_s,pe\n1e-6,0.9\n2e-6,1e400\n",
                 "non-finite value '1e400'", 3, "pe", id="overflow"),
    # cells are plain text: a quote is part of its cell
    pytest.param('tau_s,pe\n1e-6,0.9\n"x",0.5\n',
                 """non-numeric value '"x"'""", 3, "tau_s", id="quoted-cell"),
    pytest.param('tau_s,pe\n1e-6,0.9\n"2e-6,0.5"\n',
                 """non-numeric value '"2e-6'""", 3, "tau_s",
                 id="quoted-comma"),
    pytest.param('tau_s,pe\n1e-6,"0.9"\n2e-6,0.5\n',
                 """non-numeric value '"0.9"'""", 2, "pe", id="quoted-number"),
    pytest.param('"tau_s","pe"\n1e-6,0.9\n2e-6,0.5\n',
                 'expected header tau_s,pe, got "tau_s","pe"', None,
                 '"tau_s"', id="quoted-header"),
    pytest.param("tau_s,pe\n1e-6,0.9\n# 2e-6,0.5\n",
                 "non-numeric value '# 2e-6'", 3, "tau_s", id="comment-cell"),
    pytest.param("tau_s,pe\n", "need at least 2 data rows, got no data rows",
                 None, None, id="header-only"),
    pytest.param("tau_s,pe\n\n", "expected 2 cells, got 0", 2, None,
                 id="header-and-blank"),
    pytest.param("tau_s,pe\n1e-6,0.9\n", "need at least 2 data rows, got 1",
                 None, None, id="too-few-rows"),
    pytest.param("tau_s,pe\r\n1e-6,0.9\r\n\r\n2e-6,0.5\r\n",
                 "expected 2 cells, got 0", 3, None, id="crlf-blank-line"),
    pytest.param("tau_s,pe\r\n1e-6,0.9\r\n2e-6,x\r\n",
                 "non-numeric value 'x'", 3, "pe", id="crlf-bad-cell"),
    pytest.param("tau_s,pe\n1e-6\r,0.9\n2e-6,0.5\n",
                 "expected 2 cells, got 1", 2, None, id="lone-cr"),
    pytest.param("tau,pe\n1e-6,0.9\n2e-6,0.5\n",
                 "expected header tau_s,pe, got tau,pe", None, "tau",
                 id="wrong-header"),
    pytest.param("tau_s,pe\n1e-6,0.9\n2e-6,0.5\x00\n",
                 "non-numeric value '0.5\\x00'", 3, "pe", id="nul"),
    # every row's width is checked before any cell is converted
    pytest.param("tau_s,pe\nx,0.9\n2e-6\n3e-6,0.5\n",
                 "expected 2 cells, got 1", 3, None,
                 id="ragged-row-before-bad-cell"),
])
def test_corrupt_files_get_the_per_cell_diagnostic(tmp_path, body, message,
                                                   row, column):
    path = tmp_path / "t.csv"
    path.write_text(body, newline="", encoding="utf-8")
    assert _loaded(path, DECAY_HEADER, 2) == \
        Diagnostic("error", message, str(path), row, column)


@pytest.mark.parametrize("body, expected", [
    pytest.param("tau_s,pe\r\n1e-6,0.9\r\n2e-6,0.5\r\n",
                 [[1e-6, 0.9], [2e-6, 0.5]], id="crlf"),
    pytest.param("tau_s,pe\n1e-6,0.9\r2e-6,0.5\n",
                 [[1e-6, 0.9], [2e-6, 0.5]], id="lone-cr-row-end"),
    pytest.param("tau_s,pe\n 1e-6 ,0.9\n2_0e-6,\u0660.5\n",
                 [[1e-6, 0.9], [2e-5, 0.5]],
                 id="spaces-underscore-unicode-digit"),
    pytest.param("tau_s,pe\n1e-6,0.9\n2e-6,0."
                 + "0" * csv.field_size_limit() + "1\n",
                 [[1e-6, 0.9], [2e-6, 0.0]], id="over-field-limit"),
])
def test_unusual_valid_files_read_as_the_per_cell_path_reads(tmp_path, body,
                                                             expected):
    # the values float() gives each cell, whatever path the reader takes
    path = tmp_path / "t.csv"
    path.write_text(body, newline="", encoding="utf-8")
    assert _read_table(path, DECAY_HEADER, 2).tobytes() == \
        np.array(expected).tobytes()


def test_undecodable_file_is_unreadable(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"tau_s,pe\n1e-6,0.9\n2e-6,\xff\n")
    assert _loaded(path, DECAY_HEADER, 2) == Diagnostic(
        "error", "unreadable file: 'utf-8' codec can't decode byte 0xff in "
        "position 23: invalid start byte", str(path))


def test_directory_is_unreadable(tmp_path):
    with pytest.raises(InputError, match="unreadable file: .*directory") \
            as info:
        load_spectroscopy_trace(tmp_path)
    assert info.value.diagnostic.file == str(tmp_path)
