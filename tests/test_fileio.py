import json

import numpy as np
import pytest

from qnl.decayfit import DecayTrace
from qnl.fileio import (DECAY_HEADER, PSD_HEADER, SERIES_HEADER,
                        InputError, atomic_write_text, format_csv,
                        load_charge_noise_table, load_decay_trace,
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
              PSDPoint(freq=1e5, value=4.0e-6, units="voltage_noise")]
    text = format_csv(dict(zip(PSD_HEADER, zip(*(
        (p.freq, p.value, p.units) for p in points)))))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "psd.csv"
        path.write_text(self.text)
        assert load_psd_csv(path) == self.points

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
