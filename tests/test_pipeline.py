import builtins
import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from qnl.cli import main
from qnl.fileio import (SPECTRUM_HEADER, TWO_TONE_HEADER, format_csv,
                        load_psd_csv, sidecar_path, write_decay_trace)
from qnl import ddfilter, fitutil, noisespec, pipeline
from qnl.pipeline import (STAGES, AnalysisConfig, Diagnostic, PipelineError,
                          run_pipeline, validate_inputs)
from qnl.spectro import (CavityQubitParams, QubitDispersion, qubit_frequency,
                         transmission)
from qnl.units import TWO_PI

from conftest import make_cpmg, make_relaxation, q1_dataset


@pytest.fixture(scope="module")
def q1_run(tmp_path_factory):
    """One full pipeline run shared by the read-only section checks."""
    config = AnalysisConfig(**q1_dataset(tmp_path_factory.mktemp("q1")))
    return config, run_pipeline(config)


class TestDiagnostic:
    def test_str_full(self):
        d = Diagnostic("error", "bad value", file="a.csv", row=7,
                       column="pe")
        assert str(d) == "[error] a.csv:row 7:column pe: bad value"

    def test_str_message_only(self):
        assert str(Diagnostic("warning", "nothing to do")) == \
            "[warning] nothing to do"

    def test_str_row_without_file(self):
        assert str(Diagnostic("error", "bad value", row=3)) == \
            "[error] row 3: bad value"

    def test_str_column_without_file(self):
        d = Diagnostic("error", "must be a path string", column="output_dir")
        assert str(d) == "[error] column output_dir: must be a path string"

    def test_pipeline_error_carries_diagnostics(self):
        diags = [Diagnostic("error", "first"), Diagnostic("error", "second")]
        err = PipelineError(diags)
        assert err.diagnostics == diags
        assert "first" in str(err) and "second" in str(err)


class TestConfig:
    def test_from_json_round_trip(self, q1_config, tmp_path):
        path = q1_config["output_dir"].replace("out", "config.json")
        loaded = AnalysisConfig.from_json(path)
        assert loaded.decay_traces == q1_config["decay_traces"]
        assert loaded.qubit == q1_config["qubit"]

    def test_to_dict_inverts_constructor(self):
        config = AnalysisConfig(output_dir="x", temperatures_k=[0.1],
                                frequency_series="drift.csv")
        assert AnalysisConfig(**config.to_dict()) == config

    def test_missing_required_key_is_diagnosed(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")
        with pytest.raises(PipelineError) as excinfo:
            AnalysisConfig.from_json(path)
        (diag,) = excinfo.value.diagnostics
        assert diag.severity == "error"
        assert diag.column == "output_dir"
        assert "missing required config key" in diag.message

    def test_unknown_key_is_diagnosed(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"out_dir": "x", "output_dir": "x"}')
        with pytest.raises(PipelineError) as excinfo:
            AnalysisConfig.from_json(path)
        (diag,) = excinfo.value.diagnostics
        assert diag.severity == "error"
        assert "'out_dir'" in diag.message
        assert "output_dir" in diag.message  # suggests the valid keys

    def test_invalid_json_is_diagnosed(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"output_dir": ')
        with pytest.raises(PipelineError, match="cannot read JSON config"):
            AnalysisConfig.from_json(path)

    def test_non_utf8_config_is_diagnosed_at_its_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"output_dir": "caf\xe9"}')
        with pytest.raises(PipelineError) as excinfo:
            AnalysisConfig.from_json(path)
        (diag,) = excinfo.value.diagnostics
        assert (diag.severity, diag.file, diag.row, diag.column) == (
            "error", str(path), None, None)
        assert diag.message.startswith("cannot read JSON config: 'utf-8' "
                                       "codec can't decode byte 0xe9")

    def test_non_object_config_is_diagnosed(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('["output_dir"]')
        with pytest.raises(PipelineError, match="JSON object"):
            AnalysisConfig.from_json(path)


class TestValidateInputs:
    def test_clean_dataset(self, q1_config):
        assert validate_inputs(AnalysisConfig(**q1_config)) == []

    def test_empty_dataset(self, tmp_path):
        diags = validate_inputs(AnalysisConfig(output_dir=str(tmp_path)))
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert "empty dataset" in diags[0].message

    def _config_with_trace(self, tmp_path, text, meta=None):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        if meta is not None:
            sidecar_path(path).write_text(json.dumps(meta))
        return AnalysisConfig(output_dir=str(tmp_path / "out"),
                              decay_traces=[str(path)])

    def test_non_monotone_times(self, tmp_path):
        config = self._config_with_trace(
            tmp_path, "tau_s,pe\n1e-6,0.9\n3e-6,0.5\n2e-6,0.4\n",
            meta={"kind": "relaxation"})
        diags = validate_inputs(config)
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert "non-monotone" in diags[0].message
        # the offending value 2e-6 sits on file line 4
        assert diags[0].row == 4
        assert diags[0].column == "tau_s"

    def test_negative_delay(self, tmp_path):
        config = self._config_with_trace(
            tmp_path, "tau_s,pe\n-5,0.9\n3e-6,0.5\n4e-6,0.4\n",
            meta={"kind": "relaxation"})
        diags = validate_inputs(config)
        assert [(d.severity, d.row, d.column) for d in diags] == \
            [("error", 2, "tau_s")]
        assert diags[0].message == "negative tau_s at value -5.0"

    def test_unknown_qubit_key(self, q1_config):
        q1_config["qubit"]["T1"] = q1_config["qubit"].pop("t1")
        diags = validate_inputs(AnalysisConfig(**q1_config))
        assert [(d.severity, d.column) for d in diags] == [("error", "T1")]
        assert diags[0].message.startswith("unknown qubit key 'T1'; ")

    def test_population_out_of_tolerance_is_soft(self, tmp_path):
        config = self._config_with_trace(
            tmp_path, "tau_s,pe\n1e-6,0.9\n2e-6,1.5\n3e-6,0.4\n",
            meta={"kind": "relaxation"})
        diags = validate_inputs(config)
        assert [d.severity for d in diags] == ["warning"]
        assert "trace will be skipped" in diags[0].message
        assert diags[0].row == 3
        assert diags[0].column == "pe"

    def test_missing_sidecar(self, tmp_path):
        config = self._config_with_trace(
            tmp_path, "tau_s,pe\n1e-6,0.9\n2e-6,0.5\n")
        diags = validate_inputs(config)
        assert any("sidecar" in d.message and d.severity == "error"
                   for d in diags)

    def test_unknown_kind(self, tmp_path):
        config = self._config_with_trace(
            tmp_path, "tau_s,pe\n1e-6,0.9\n2e-6,0.5\n",
            meta={"kind": "hahn"})
        diags = validate_inputs(config)
        assert any("kind" in d.message and d.severity == "error"
                   for d in diags)

    def test_cpmg_without_pulses(self, tmp_path):
        config = self._config_with_trace(
            tmp_path, "tau_s,pe\n1e-6,0.9\n2e-6,0.5\n",
            meta={"kind": "cpmg", "n_pulses": 0})
        diags = validate_inputs(config)
        assert any("n_pulses" in d.message for d in diags)

    def test_wrong_header(self, tmp_path):
        config = self._config_with_trace(
            tmp_path, "time,prob\n1e-6,0.9\n", meta={"kind": "ramsey"})
        diags = validate_inputs(config)
        assert any("expected header tau_s,pe" in d.message for d in diags)

    def test_non_numeric_cell(self, tmp_path):
        config = self._config_with_trace(
            tmp_path, "tau_s,pe\n1e-6,0.9\n2e-6,oops\n",
            meta={"kind": "ramsey"})
        diags = validate_inputs(config)
        assert any("non-numeric" in d.message and d.row == 3 for d in diags)

    def test_single_row_trace(self, tmp_path):
        config = self._config_with_trace(
            tmp_path, "tau_s,pe\n1e-6,0.9\n", meta={"kind": "relaxation"})
        diags = validate_inputs(config)
        assert any("at least 2 data rows" in d.message for d in diags)

    def _config_with_series(self, tmp_path, t, f):
        path = tmp_path / "series.csv"
        body = "\n".join(f"{ti!r},{fi!r}" for ti, fi in zip(t, f))
        path.write_text("t_s,freq_hz\n" + body + "\n")
        return AnalysisConfig(output_dir=str(tmp_path / "out"),
                              frequency_series=str(path))

    def test_series_must_increase(self, tmp_path):
        t = [0.0, 1.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        config = self._config_with_series(tmp_path, t, [0.0] * 8)
        diags = validate_inputs(config)
        assert any("must increase" in d.message for d in diags)

    def test_series_must_be_uniform(self, tmp_path):
        t = [0.0, 1.0, 2.0, 3.1, 4.0, 5.0, 6.0, 7.0]
        config = self._config_with_series(tmp_path, t, [0.0] * 8)
        diags = validate_inputs(config)
        assert any("uniform" in d.message for d in diags)

    def test_output_dir_under_a_file(self, q1_config):
        relax = q1_config["decay_traces"][0]
        q1_config["output_dir"] = str(Path(relax) / "out")
        diags = validate_inputs(AnalysisConfig(**q1_config))
        assert [(d.severity, d.column) for d in diags] == \
            [("error", "output_dir")]
        assert diags[0].message == f"{relax!r} exists and is not a directory"

    def test_series_too_short(self, tmp_path):
        config = self._config_with_series(tmp_path, [0.0, 1.0], [0.0, 0.0])
        diags = validate_inputs(config)
        assert any("at least 8 data rows" in d.message for d in diags)

    def test_transmission_needs_20_rows(self, tmp_path):
        path = tmp_path / "s21.csv"
        path.write_text("freq_hz,amp\n" +
                        "\n".join(f"{5e9 + i},0.5" for i in range(10)) + "\n")
        config = AnalysisConfig(output_dir=str(tmp_path / "out"),
                                transmission_trace=str(path))
        diags = validate_inputs(config)
        assert any("at least 20 data rows" in d.message for d in diags)

    def test_two_tone_needs_3_rows(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("voltage_v,freq_hz,phase_rad\n0.001,5e9,0.1\n")
        config = AnalysisConfig(output_dir=str(tmp_path / "out"),
                                two_tone_map=str(path))
        diags = validate_inputs(config)
        assert any("at least 3 data rows" in d.message for d in diags)

    def test_input_path_that_is_not_a_string(self, tmp_path):
        config = AnalysisConfig(output_dir=str(tmp_path / "out"),
                                frequency_series=5)
        assert validate_inputs(config) == [Diagnostic(
            "error", "must be a path string, got 5",
            column="frequency_series")]

    def test_qubit_metadata_positivity(self, q1_config):
        config = AnalysisConfig(**q1_config)
        config.qubit = dict(config.qubit, kappa=-1.0)
        diags = validate_inputs(config)
        assert any("kappa" in d.message and d.severity == "error"
                   for d in diags)


class TestRunPipeline:
    def test_outputs_written(self, q1_run):
        config, _ = q1_run
        out = Path(config.output_dir)
        for name in ("report.json", "coherence_fits.csv", "psd_points.csv",
                     "periodogram.csv", "thermal_model.csv"):
            assert (out / name).exists(), name

    def test_decay_fits_recover_truth(self, q1_run):
        _, report = q1_run
        fits = report.sections["decay_fits"]["fits"]
        assert len(fits) == 6
        by_kind = {}
        for f in fits:
            by_kind.setdefault(f["kind"], []).append(f)
        relax = by_kind["relaxation"][0]
        assert relax["params"]["t1"] == pytest.approx(11.6e-6, rel=0.05)
        ramsey = by_kind["ramsey"][0]
        assert ramsey["params"]["t2"] == pytest.approx(8.2e-6, rel=0.05)
        assert ramsey["params"]["detuning"] == pytest.approx(0.5e6, rel=0.02)
        cpmg = by_kind["echo"] + by_kind["cpmg"]
        assert sorted(f["n_pulses"] for f in cpmg) == [1, 2, 4, 8]
        for f in cpmg:
            truth = 4e-6 * f["n_pulses"] ** 0.61
            assert f["params"]["t_phi"] == pytest.approx(truth, rel=0.10)

    def test_scaling_recovers_exponent(self, q1_run):
        _, report = q1_run
        fits = report.sections["scaling"]["fits"]
        assert len(fits) == 1
        assert fits[0]["bias_mv"] == 2.0
        assert fits[0]["n_points"] == 4
        assert fits[0]["beta"] == pytest.approx(0.61, abs=0.06)
        # beta = alpha/(1+alpha) inverts to the spectral exponent
        beta = fits[0]["beta"]
        assert fits[0]["alpha"] == pytest.approx(beta / (1 - beta), rel=1e-9)

    def test_psd_section(self, q1_run):
        _, report = q1_run
        psd = report.sections["psd"]
        rows = [dict(zip(psd["points"], row))
                for row in zip(*psd["points"].values())]
        freq_rows = [r for r in rows
                     if r["units"] == "freq_noise" and r["n_pulses"] >= 1]
        volt_rows = [r for r in rows if r["units"] == "voltage_noise"]
        t1_rows = [r for r in rows
                   if r["units"] == "freq_noise" and r["n_pulses"] == 0]
        assert len(freq_rows) == 4
        assert len(volt_rows) == 4
        assert len(t1_rows) == 1
        assert psd["powerlaw"] is not None
        assert 0.5 < psd["powerlaw"]["exponent"] < 2.5
        # reconstruction samples higher frequencies at smaller N
        freqs = {r["n_pulses"]: r["freq_hz"] for r in freq_rows}
        assert freqs[8] > freqs[1]

    def test_low_frequency_section(self, q1_run):
        # the section names periodogram.csv, by its bytes on disk, and
        # holds no per-row list of its own
        config, report = q1_run
        low = report.sections["low_frequency"]
        table = Path(config.output_dir) / "periodogram.csv"
        assert low["table"] == {
            "file": "periodogram.csv", "rows": 4096 // 2,
            "sha256": hashlib.sha256(table.read_bytes()).hexdigest()}
        assert set(low) == {"n_samples", "df_hz", "band_hz", "table",
                            "powerlaw", "sources"}
        assert all(len(v) <= 2 for v in low.values() if isinstance(v, list))
        freqs = load_psd_csv(table)[:, 0]
        assert low["n_samples"] == 4096 and len(freqs) == 4096 // 2
        assert low["band_hz"] == [freqs[0], freqs[-1]]
        assert low["df_hz"] == freqs[0]
        assert low["powerlaw"]["exponent"] == pytest.approx(1.3, abs=0.2)

    def test_powerlaw_fit_of_the_named_table_is_the_reported_fit(self,
                                                                  q1_run):
        config, report = q1_run
        table = Path(config.output_dir) / \
            report.sections["low_frequency"]["table"]["file"]
        result = CliRunner().invoke(main, ["powerlaw-fit", str(table)],
                                    catch_exceptions=False)
        assert result.exit_code == 0
        assert result.output == json.dumps(
            report.sections["low_frequency"]["powerlaw"], indent=1,
            sort_keys=True) + "\n"

    def test_thermal_section(self, q1_run):
        _, report = q1_run
        curves = report.sections["thermal"]["curves"]
        assert list(curves) == ["temp_k", "t1_s", "pe", "n_th", "gamma_phi"]
        assert curves["temp_k"] == [0.05, 0.1, 0.2, 0.3, 0.4]
        assert all(len(c) == 5 for c in curves.values())
        t1s = curves["t1_s"]
        assert all(a > b for a, b in zip(t1s, t1s[1:]))
        pes = curves["pe"]
        assert all(a < b for a, b in zip(pes, pes[1:]))
        assert all(0 <= pe < 0.5 for pe in pes)

    def test_reference_section_always_present(self, q1_run):
        _, report = q1_run
        rows = report.sections["reference_charge_noise"]["rows"]
        assert len(rows) == 10

    def test_provenance_hashes_every_input(self, q1_run):
        config, report = q1_run
        inputs = report.provenance["inputs"]
        for path in config.decay_traces:
            assert path in inputs
            assert str(sidecar_path(path)) in inputs
        assert config.frequency_series in inputs
        assert all(len(h) == 64 for h in inputs.values())

    def test_provenance_is_exactly_the_section_sources(self, tmp_path):
        config_dict = q1_dataset(tmp_path / "q1")
        relax = config_dict["decay_traces"][0]
        lines = Path(relax).read_text().splitlines()
        Path(relax).write_text("\n".join(lines[:4]) + "\n")  # fit fails
        report = run_pipeline(AnalysisConfig(**config_dict))
        sources = {source for section in report.sections.values()
                   for source in section["sources"]}
        assert relax not in sources
        assert report.provenance["inputs"] == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in sources}

    def test_no_warnings_on_clean_data(self, q1_run):
        _, report = q1_run
        assert report.warnings == []

    def test_report_round_trip(self, q1_run, tmp_path):
        _, report = q1_run
        path = tmp_path / "copy.json"
        report.save(path)
        assert json.loads(path.read_text()) == report.to_dict()

    def test_saved_report_is_the_encoders_text(self, q1_run, tmp_path):
        # saving the returned report again writes the run's report.json
        # byte for byte
        config, report = q1_run
        path = tmp_path / "copy.json"
        report.save(path)
        assert path.read_text() == \
            (Path(config.output_dir) / "report.json").read_text()

    def test_saved_report_matches_returned(self, q1_run):
        config, report = q1_run
        path = Path(config.output_dir) / "report.json"
        assert json.loads(path.read_text()) == report.to_dict()

    def test_coherence_csv_rows(self, q1_run):
        config, _ = q1_run
        lines = (Path(config.output_dir) /
                 "coherence_fits.csv").read_text().splitlines()
        assert lines[0] == ("file,kind,n_pulses,bias_mv,t1_s,t2_s,t_phi_s,"
                            "stretch,amplitude,offset,detuning_hz")
        assert len(lines) == 1 + 6

    def test_validation_errors_abort_before_writing(self, tmp_path):
        config = AnalysisConfig(output_dir=str(tmp_path / "out"))
        with pytest.raises(PipelineError) as info:
            run_pipeline(config)
        assert info.value.diagnostics
        assert not (tmp_path / "out").exists()

    def test_out_of_tolerance_trace_skipped(self, tmp_path):
        config_dict = q1_dataset(tmp_path / "q1")
        bad = tmp_path / "q1" / "q1_bad.csv"
        bad.write_text("tau_s,pe\n1e-6,0.9\n2e-6,1.5\n3e-6,0.4\n")
        sidecar_path(bad).write_text(json.dumps({"kind": "relaxation"}))
        config_dict["decay_traces"].append(str(bad))
        report = run_pipeline(AnalysisConfig(**config_dict))
        assert any("skipped" in w for w in report.warnings)
        assert all(f["file"] != str(bad)
                   for f in report.sections["decay_fits"]["fits"])

    @pytest.mark.parametrize("temperatures", [(20.0, 400.0), (400.0, 20.0)])
    def test_echo_takes_the_t1_of_its_own_temperature(self, tmp_path,
                                                       temperatures):
        # relaxation and echo at +1 mV and two temperatures: a T1 looked up
        # by bias alone hands one echo the other temperature's T1
        truth = {20.0: (12e-6, 6e-6), 400.0: (3e-6, 2e-6)}   # (T1, T_phi)
        paths = []
        for temp in temperatures:
            t1, t_phi = truth[temp]
            for name, trace in (
                    ("relax", make_relaxation(t1=t1, noise=0.002, seed=1)),
                    ("echo", make_cpmg(1, t1=t1, t_phi=t_phi, stretch=2.0,
                                       noise=0.002, seed=2))):
                path = tmp_path / f"{name}_{temp:g}mK.csv"
                write_decay_trace(path, trace, bias_mv=1.0,
                                  temperature_mk=temp)
                paths.append(str(path))
        report = run_pipeline(AnalysisConfig(
            output_dir=str(tmp_path / "out"), decay_traces=paths))
        # two box points are too few for the power law, and nothing else warns
        assert report.warnings == ["[warning] psd: power-law fit failed "
                                   "(need at least 3 points)"]
        echoes = {f["temperature_mk"]: f["params"]
                  for f in report.sections["decay_fits"]["fits"]
                  if f["kind"] == "echo"}
        for temp, (t1, t_phi) in truth.items():
            assert echoes[temp]["t1"] == pytest.approx(t1, rel=0.02)
            assert echoes[temp]["t_phi"] == pytest.approx(t_phi, rel=0.02)
            assert echoes[temp]["stretch"] == pytest.approx(2.0, rel=0.05)

    def test_scaling_is_fitted_per_temperature(self, tmp_path):
        # T_phi grows with N at 20 mK and falls at 400 mK, where beta < 0
        # leaves alpha undefined: that condition warns and writes no row
        truth = {20.0: (12e-6, 4e-6, 0.6), 400.0: (3e-6, 2e-6, -0.3)}
        paths = []
        for temp, (t1, t_phi, beta) in truth.items():
            traces = [("relax", make_relaxation(t1=t1, noise=0.002, seed=1))]
            traces += [(f"n{n}", make_cpmg(n, t1=t1, t_phi=t_phi * n**beta,
                                           stretch=2.0, noise=0.002,
                                           seed=2 + n))
                       for n in (1, 2, 4, 8)]
            for name, trace in traces:
                path = tmp_path / f"{name}_{temp:g}mK.csv"
                write_decay_trace(path, trace, bias_mv=1.0,
                                  temperature_mk=temp)
                paths.append(str(path))
        report = run_pipeline(AnalysisConfig(
            output_dir=str(tmp_path / "out"), decay_traces=paths))
        # nothing else warns
        (warning,) = report.warnings
        assert warning.startswith("[warning] scaling at bias 1.0 mV, "
                                  "400.0 mK: fit failed (fitted beta = -")
        (row,) = report.sections["scaling"]["fits"]
        assert row["temperature_mk"] == 20.0
        assert row["bias_mv"] == 1.0 and row["n_points"] == 4
        assert row["beta"] == pytest.approx(0.6, abs=0.02)

    def test_report_file_is_byte_deterministic(self, tmp_path):
        config = AnalysisConfig(**q1_dataset(tmp_path / "q1"))
        path = Path(config.output_dir) / "report.json"
        texts = []
        for _ in range(2):
            report = run_pipeline(config)
            texts.append(path.read_bytes())
            assert json.loads(texts[-1]) == report.to_dict()
        # perfbench's digest drops the created line with this pattern
        created = re.compile(rb'\n *"created": "[^"]*",?\n')
        first, second = (created.sub(b"\n", text) for text in texts)
        assert first != texts[0] and first == second

    def test_report_layout_one_key_or_list_per_line(self, q1_run):
        config, report = q1_run
        lines = (Path(config.output_dir) /
                 "report.json").read_text().splitlines()
        assert lines[:2] == ["{", ' "config": {']
        assert f' "created": "{report.created}",' in lines
        freqs = report.sections["psd"]["points"]["freq_hz"]
        assert f'    "freq_hz": {json.dumps(freqs)},' in lines

    def test_deterministic_given_same_inputs(self, tmp_path):
        config_dict = q1_dataset(tmp_path / "q1")
        first = run_pipeline(AnalysisConfig(**config_dict)).to_dict()
        second = run_pipeline(AnalysisConfig(**config_dict)).to_dict()
        first.pop("created")
        second.pop("created")
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)


def _rewrite_row(path, row, text):
    """Replace data row `row` (1-based) of a CSV with `text`."""
    lines = Path(path).read_text().splitlines()
    lines[row] = text
    Path(path).write_text("\n".join(lines) + "\n")


def _set_sidecar(config, index, meta):
    sidecar_path(config["decay_traces"][index]).write_text(json.dumps(meta))


# Each of these once passed validation (or bypassed it) and then made
# run_pipeline raise a bare exception; the comment names that exception.
CRASH_ERRORS = [
    # ValueError from int("x")
    pytest.param(lambda c: _set_sidecar(c, 3, {"kind": "cpmg",
                                               "n_pulses": "x"}),
                 "n_pulses must be an integer", id="n_pulses_not_int"),
    # TypeError comparing "x" > 0
    pytest.param(lambda c: c["qubit"].update(t1="x"),
                 "t1 must be a finite number", id="qubit_t1_not_number"),
    # AttributeError: list has no .items
    pytest.param(lambda c: c.update(qubit=[]), "must be an object, got []",
                 id="qubit_list"),
    # iterated per character
    pytest.param(lambda c: c.update(decay_traces=c["decay_traces"][0]),
                 "list of path strings", id="decay_traces_string"),
    # scipy: initial guess outside bounds
    pytest.param(lambda c: _rewrite_row(c["decay_traces"][0], 2,
                                        "1e-6,nan"),
                 "non-finite value 'nan'", id="nan_population"),
    # numpy: inhomogeneous shape
    pytest.param(lambda c: _rewrite_row(c["decay_traces"][0], 2, "1e-6"),
                 "expected 2 cells, got 1", id="ragged_row"),
    # AttributeError: list has no .get
    pytest.param(lambda c: sidecar_path(c["decay_traces"][0]).write_text(
        "[]"), "JSON object", id="sidecar_list"),
    # ValueError iterating the characters of "0.1"
    pytest.param(lambda c: c.update(temperatures_k="0.1"),
                 "positive numbers", id="temperatures_string"),
    # an unknown stage was silently ignored; the inputs alone decide which
    # stages write a section, so a stages key is an unknown key
    pytest.param(lambda c: c.update(stages=["decya"]),
                 "unknown config key 'stages'", id="misspelled_stage"),
    # FileExistsError from mkdir
    pytest.param(lambda c: c.update(output_dir=c["decay_traces"][0]),
                 "exists and is not a directory", id="output_dir_is_a_file"),
    # NotADirectoryError from mkdir
    pytest.param(lambda c: c.update(
        output_dir=str(Path(c["decay_traces"][0]) / "out")),
        "exists and is not a directory", id="output_dir_under_a_file"),
    # validated clean, then the trace was dropped from the run
    pytest.param(lambda c: _set_sidecar(c, 3, {"kind": "echo",
                                               "n_pulses": 2}),
                 "echo trace must have n_pulses=1", id="echo_two_pulses"),
]


# Finite but absurd qubit metadata that overflows one stage's arithmetic.
ABSURD_METADATA = [
    pytest.param("lever_c", "psd", "OverflowError", id="lever_c"),
    pytest.param("f_ss", "psd", "ZeroDivisionError", id="f_ss"),
    pytest.param("chi", "thermal", "OverflowError", id="chi"),
]


# report section -> the CSV its stage writes
SECTION_TABLES = {"decay_fits": "coherence_fits.csv", "psd": "psd_points.csv",
                  "low_frequency": "periodogram.csv",
                  "thermal": "thermal_model.csv"}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _load_strict_report(config):
    """report.json parsed as standard JSON: NaN/Infinity raise."""
    text = (Path(config.output_dir) / "report.json").read_text()
    return json.loads(text, parse_constant=_reject_constant)


class TestStageIsolation:
    @pytest.mark.parametrize("key, stage, error", ABSURD_METADATA)
    def test_absurd_metadata_fails_only_its_stage(self, tmp_path, key,
                                                  stage, error):
        config_dict = q1_dataset(tmp_path / "q1")
        config_dict["qubit"][key] = 1e300
        config = AnalysisConfig(**config_dict)
        assert validate_inputs(config) == []
        report = run_pipeline(config)
        failed = [w for w in report.warnings if " stage " in w]
        assert len(failed) == 1
        assert failed[0].startswith(f"[warning] stage {stage} failed "
                                    f"({error}: ")
        assert failed[0].endswith("; section omitted")
        section = STAGES[stage][0]
        assert section not in report.sections
        others = {"decay_fits", "scaling", "psd", "low_frequency",
                  "thermal"} - {section}
        assert others <= set(report.sections)
        out = Path(config.output_dir)
        assert (out / "report.json").exists()
        # the failed stage leaves no table: the CSVs are those of the
        # sections present
        assert {p.name for p in out.glob("*.csv")} == {
            name for key, name in SECTION_TABLES.items()
            if key in report.sections}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_absurd_sweet_spot_keeps_report_standard_json(self, tmp_path):
        # v_ss = 1e300 overflows the qubit frequency; the psd stage fails
        # without a numpy warning instead of writing NaN/Infinity into
        # report.json
        config_dict = q1_dataset(tmp_path / "q1")
        config_dict["qubit"]["v_ss"] = 1e300
        config = AnalysisConfig(**config_dict)
        assert validate_inputs(config) == []
        report = run_pipeline(config)
        assert [w for w in report.warnings if " stage " in w] == [
            "[warning] stage psd failed (OverflowError: qubit frequency "
            "overflows at this bias offset); section omitted"]
        _load_strict_report(config)

    def test_overflowing_periodogram_fails_only_lowfreq(self, tmp_path):
        # a finite drift record of +-1e200 overflows the periodogram bins
        config_dict = q1_dataset(tmp_path / "q1")
        series = Path(config_dict["frequency_series"])
        lines = series.read_text().splitlines()
        series.write_text("\n".join(
            [lines[0]] + [f"{line.split(',')[0]},{(-1) ** i * 1e200!r}"
                          for i, line in enumerate(lines[1:])]) + "\n")
        config = AnalysisConfig(**config_dict)
        assert validate_inputs(config) == []
        report = run_pipeline(config)
        failed = [w for w in report.warnings if " stage " in w]
        assert len(failed) == 1
        assert failed[0].startswith("[warning] stage lowfreq failed "
                                    "(ValueError: ")
        assert "low_frequency" not in report.sections
        _load_strict_report(config)

    def test_programming_errors_still_surface(self, q1_config, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a data problem")

        monkeypatch.setattr(pipeline, "reconstruct_psd_point", broken)
        with pytest.raises(TypeError, match="a bug"):
            run_pipeline(AnalysisConfig(**q1_config))


class TestCrashInputs:
    @pytest.mark.parametrize("mutate, message", CRASH_ERRORS)
    def test_error_diagnostic(self, tmp_path, mutate, message):
        config_dict = q1_dataset(tmp_path / "q1")
        mutate(config_dict)
        path = tmp_path / "q1" / "config.json"
        path.write_text(json.dumps(config_dict))
        try:
            diags = validate_inputs(AnalysisConfig.from_json(path))
        except PipelineError as exc:
            diags = exc.diagnostics
        errors = [d for d in diags if d.severity == "error"]
        assert any(message in d.message for d in errors), errors
        with pytest.raises(PipelineError):
            run_pipeline(AnalysisConfig.from_json(path))
        assert not (tmp_path / "q1" / "out").exists()

    def test_short_relaxation_trace_is_a_warning(self, tmp_path):
        # FitError: need at least 5 points
        config_dict = q1_dataset(tmp_path / "q1")
        relax = config_dict["decay_traces"][0]
        lines = Path(relax).read_text().splitlines()
        Path(relax).write_text("\n".join(lines[:4]) + "\n")
        report = run_pipeline(AnalysisConfig(**config_dict))
        assert any(w.startswith(f"[warning] {relax}: fit failed")
                   for w in report.warnings)
        fits = report.sections["decay_fits"]["fits"]
        assert [f["kind"] for f in fits].count("relaxation") == 0
        assert len(fits) == 5      # echo/CPMG fall back to qubit.t1

    def test_constant_drift_series_is_a_warning(self, tmp_path):
        # FitError: power-law fit undefined for non-positive values
        config_dict = q1_dataset(tmp_path / "q1")
        series = Path(config_dict["frequency_series"])
        lines = series.read_text().splitlines()
        series.write_text("\n".join(
            [lines[0]] + [line.split(",")[0] + ",5.0e9" for line in
                          lines[1:]]) + "\n")
        report = run_pipeline(AnalysisConfig(**config_dict))
        assert report.sections["low_frequency"]["powerlaw"] is None
        assert any("power-law fit failed" in w for w in report.warnings)

    def test_two_cpmg_points_are_a_psd_warning(self, tmp_path):
        # FitError: need at least 3 points, once dropped without a word
        config_dict = q1_dataset(tmp_path / "q1")
        config_dict["decay_traces"] = [
            path for path in config_dict["decay_traces"]
            if not path.endswith(("cpmg4.csv", "cpmg8.csv"))]
        report = run_pipeline(AnalysisConfig(**config_dict))
        psd = report.sections["psd"]
        assert sorted(set(psd["points"]["n_pulses"]) - {0}) == [1, 2]
        assert psd["powerlaw"] is None
        assert ("[warning] psd: power-law fit failed (need at least 3 "
                "points)") in report.warnings

    def test_relaxation_only_is_a_point_count_warning(self, tmp_path):
        # the T1 point alone leaves no CPMG point for the power law: the
        # warning names the count, not the shape of an empty point list
        config_dict = q1_dataset(tmp_path / "q1")
        config_dict["decay_traces"] = [
            path for path in config_dict["decay_traces"]
            if path.endswith("q1_relax.csv")]
        report = run_pipeline(AnalysisConfig(**config_dict))
        assert report.sections["psd"]["powerlaw"] is None
        assert ("[warning] psd: power-law fit failed (need at least 3 "
                "points)") in report.warnings

    def test_resonator_below_the_trace_loses_only_the_transmission_fit(
            self, tmp_path):
        # f_r 53 MHz below a 5.653-5.683 GHz trace puts the start
        # f_q0 = f_lo + f_hi - f_r above its bound, and the solver raises
        # ValueError; the dispersion fit does not use f_r and stays
        s21, two_tone = _spectro_inputs(tmp_path)
        config = AnalysisConfig(output_dir=str(tmp_path / "out"),
                                transmission_trace=str(s21),
                                two_tone_map=str(two_tone),
                                qubit={"f_r": 5.60e9, "kappa": KAPPA})
        assert validate_inputs(config) == []
        report = run_pipeline(config)
        assert set(report.sections["spectro"]) == {"dispersion", "sources"}
        assert report.sections["spectro"]["sources"] == [str(two_tone)]
        assert len(report.warnings) == 1
        assert report.warnings[0].startswith(
            f"[warning] {s21}: transmission fit failed (")


KAPPA = TWO_PI * 0.38e6


def _spectro_inputs(root):
    """A 201-row transmission trace of the q1 cavity (f_r = 5.668 GHz) and
    an 11 x 301 two-tone map of the q1 dispersion, written under root."""
    cavity = CavityQubitParams(f_r=5.668e9, kappa=KAPPA, f_q=5.668e9,
                               gamma=TWO_PI * 3.18e6, g=TWO_PI * 5e6)
    freqs = np.linspace(5.653e9, 5.683e9, 201)
    s21 = root / "s21.csv"
    s21.write_text(format_csv(dict(zip(SPECTRUM_HEADER, (
        freqs.tolist(), np.abs(transmission(cavity, freqs)).tolist())))))
    disp = QubitDispersion(f_ss=5.065e9, lever_c=2.348e12)
    probe = np.linspace(5.0e9, 5.6e9, 301)
    rows = [(v, f, 0.9 / (1.0 + ((f - qubit_frequency(disp, v)) / 5e6) ** 2))
            for v in np.linspace(-1e-3, 1e-3, 11) for f in probe]
    two_tone = root / "two_tone.csv"
    two_tone.write_text(format_csv(dict(zip(TWO_TONE_HEADER, zip(*rows)))))
    return s21, two_tone


def test_spectro_fits_run_clean_beside_the_decay_fits(tmp_path):
    # every input of a whole dataset fits, with no fault and no warning
    config = q1_dataset(tmp_path / "q1")
    s21, two_tone = _spectro_inputs(tmp_path)
    config.update(transmission_trace=str(s21), two_tone_map=str(two_tone))
    report = run_pipeline(AnalysisConfig(**config))
    assert len(report.sections["decay_fits"]["fits"]) == \
        len(config["decay_traces"])
    assert {"transmission", "dispersion"} <= set(report.sections["spectro"])
    assert not report.warnings


def test_each_input_is_parsed_once(q1_config, monkeypatch):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    run_pipeline(AnalysisConfig(**q1_config))
    monkeypatch.undo()
    inputs = (q1_config["decay_traces"] + [q1_config["frequency_series"]]
              + [str(sidecar_path(p)) for p in q1_config["decay_traces"]])
    assert {path: opened.count(path) for path in inputs} == \
        {path: 1 for path in inputs}


def test_non_finite_columns_keep_their_json_and_csv_spelling(q1_config,
                                                              monkeypatch):
    curves = {"temp_k": [0.05, 0.1], "t1_s": [math.nan, 1e-05],
              "pe": [math.inf, -math.inf], "n_th": [0.1, 0.2],
              "gamma_phi": [1.0, 2.0]}
    monkeypatch.setattr(pipeline, "thermal_curves", lambda model, t: curves)
    config = AnalysisConfig(**q1_config)
    run_pipeline(config)
    out = Path(config.output_dir)
    text = (out / "report.json").read_text()
    assert '"t1_s": [NaN, 1e-05]' in text
    assert '"pe": [Infinity, -Infinity]' in text
    assert '"n_th": [0.1, 0.2]' in text
    assert (out / "thermal_model.csv").read_text().splitlines()[1:] == \
        ["0.05,nan,inf,0.1,1.0", "0.1,1e-05,-inf,0.2,2.0"]


def test_each_filter_peak_is_searched_once_per_run(q1_config, monkeypatch):
    # the fixture's pulse counts again at a second bias point: eight CPMG
    # records ask for a peak, and four distinct N are searched, each by
    # three roots (the maximum and the two half maxima)
    root = Path(q1_config["output_dir"]).parent
    for n in (1, 2, 4, 8):
        path = root / f"q1_cpmg{n}_b3.csv"
        write_decay_trace(path, make_cpmg(n, t1=11.6e-6,
                                          t_phi=4e-6 * n ** 0.61,
                                          stretch=2.0, noise=0.008,
                                          seed=20 + n), bias_mv=3.0)
        q1_config["decay_traces"].append(str(path))
    asked, searched = [], []

    def peak(seq):
        asked.append(seq.n_pulses)
        return ddfilter.first_harmonic_peak(seq)

    def find_root(f, lo, hi):
        searched.append((lo, hi))
        return fitutil.find_root(f, lo, hi)

    monkeypatch.setattr(noisespec, "first_harmonic_peak", peak)
    monkeypatch.setattr(ddfilter, "find_root", find_root)
    ddfilter._harmonic_roots.cache_clear()
    run_pipeline(AnalysisConfig(**q1_config))
    assert sorted(asked) == [1, 1, 2, 2, 4, 4, 8, 8]
    assert len(searched) == 3 * len(set(asked))


_CELLS = ["nan", "inf", "x", "", "-5", "2.0", "0", "1e-30", "1e300"]
_VALUES = [None, "x", -1, 0, 1, 2, 2.5, 1e300, [], {}, "cpmg", "echo",
           "ramsey", "relaxation"]
_MUTATION = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 6), st.integers(1, 9),
              st.sampled_from(["0", "1"]), st.sampled_from(_CELLS)),
    st.tuples(st.just("truncate"), st.integers(0, 6), st.integers(0, 9)),
    st.tuples(st.just("sidecar"), st.integers(0, 5),
              st.sampled_from(["kind", "n_pulses", "bias_mv",
                               "temperature_mk"]),
              st.sampled_from(_VALUES)),
    st.tuples(st.just("sidecar_text"), st.integers(0, 5),
              st.sampled_from(["", "[]", "null", "{}", '{"kind": '])),
    st.tuples(st.just("qubit"),
              st.sampled_from(["f_ss", "lever_c", "v_ss", "f_q", "f_r",
                               "kappa", "chi", "t1"]),
              st.sampled_from([None, "x", -1, 0, -1e-3, 1e-12, 2.5, 1e12,
                               1e300, [], {}])),
    st.tuples(st.just("field"), st.sampled_from(
        [("decay_traces", "first"), ("decay_traces", []),
         ("decay_traces", "twice"), ("frequency_series", None),
         ("frequency_series", 5), ("temperatures_k", "0.1"),
         ("temperatures_k", [0.0]), ("temperatures_k", [1e-3, 10.0]),
         ("temperatures_k", []), ("qubit", {}), ("qubit", [])])),
)


def _mutate(config, files, mutation):
    """Apply one mutation; files are the dataset's traces, then the drift."""
    kind, *args = mutation
    if kind == "cell":
        index, row, column, text = args
        lines = Path(files[index]).read_text().splitlines()
        cells = lines[min(row, len(lines) - 1)].split(",") + [""]
        cells[int(column)] = text
        _rewrite_row(files[index], min(row, len(lines) - 1),
                     ",".join(cells[:2]))
    elif kind == "truncate":
        index, keep = args
        lines = Path(files[index]).read_text().splitlines()
        Path(files[index]).write_text("\n".join(lines[:keep + 1]) + "\n")
    elif kind == "sidecar":
        index, key, value = args
        try:
            meta = dict(json.loads(sidecar_path(files[index]).read_text()))
        except (TypeError, ValueError):     # an earlier mutation broke it
            meta = {}
        sidecar_path(files[index]).write_text(
            json.dumps(dict(meta, **{key: value})))
    elif kind == "sidecar_text":
        index, text = args
        sidecar_path(files[index]).write_text(text)
    elif kind == "qubit":
        key, value = args
        config["qubit"] = dict(config["qubit"] or {}, **{key: value})
    else:
        (name, value), = args
        if value == "first":
            value = files[0]
        elif value == "twice":
            value = files[:-1] * 2
        config[name] = value


@settings(max_examples=40, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3))
# a negative first delay once validated clean and overflowed the CPMG fit
@example(mutations=[("cell", 2, 1, "0", "-5")])
def test_validated_configs_never_crash_the_run(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        config_dict = q1_dataset(Path(tmp) / "q1")
        files = config_dict["decay_traces"] + [
            config_dict["frequency_series"]]
        for mutation in mutations:
            _mutate(config_dict, files, mutation)
        config = AnalysisConfig(**config_dict)
        errors = [d for d in validate_inputs(config)
                  if d.severity == "error"]
        if errors:
            with pytest.raises(PipelineError):
                run_pipeline(config)
        else:
            run_pipeline(config)
            _load_strict_report(config)
