import json
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from qnl.cli import main
from qnl.ddfilter import PulseSequence, filter_value, first_harmonic_peak
from qnl.fileio import (PSD_HEADER, format_csv, load_decay_trace,
                        write_decay_trace, write_frequency_series)
from qnl.mcsim import SyntheticNoise, synthesize_noise
from qnl.noisespec import FrequencySeries, reconstruct_psd_point
from qnl.resonator import FilmParams, kinetic_inductance, lumped_model
from qnl.spectro import (CavityQubitParams, QubitDispersion, qubit_frequency,
                         transmission)
from qnl.thermal import (ThermalModel, photon_occupation, resonator_dephasing,
                         t1_vs_temperature, thermal_population)

from conftest import make_cpmg, make_relaxation, q1_dataset

runner = CliRunner()


def invoke(args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


def test_help_lists_subcommands():
    result = invoke(["--help"])
    assert result.exit_code == 0
    for name in ("fit-decay", "fit-spectrum", "reconstruct-psd",
                 "periodogram", "powerlaw-fit", "thermal-model",
                 "resonator-calc", "simulate", "filter-fn", "run",
                 "validate"):
        assert name in result.output


class TestFilterFn:
    def test_matches_library(self):
        result = invoke(["filter-fn", "--n", "4", "--tau", "20e-6",
                         "--grid", "1e4:1e6:32"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "freq_hz,g"
        rows = np.array([[float(c) for c in line.split(",")]
                         for line in lines[1:]])
        assert rows.shape == (32, 2)
        seq = PulseSequence(n_pulses=4, tau=20e-6)
        expected = filter_value(seq, 2.0 * np.pi * rows[:, 0])
        np.testing.assert_allclose(rows[:, 1], expected, rtol=1e-12)

    def test_peak_flag_prints_to_stderr(self):
        result = invoke(["filter-fn", "--n", "2", "--tau", "10e-6",
                         "--grid", "1e4:1e6:8", "--peak"])
        assert result.exit_code == 0
        assert "peak freq_hz=" in result.stderr
        reported = float(result.stderr.split("freq_hz=")[1].split()[0])
        pk = first_harmonic_peak(PulseSequence(n_pulses=2, tau=10e-6))
        assert reported == pk.f_peak

    def test_degenerate_grid_rejected(self):
        result = runner.invoke(main, ["filter-fn", "--n", "1", "--tau",
                                      "1e-5", "--grid", "1e6:1e4:32"])
        assert result.exit_code == 2
        assert "degenerate" in result.stderr

    def test_infinite_grid_rejected(self):
        result = runner.invoke(main, ["filter-fn", "--n", "1", "--tau",
                                      "1e-5", "--grid", "1e4:inf:3"])
        assert result.exit_code == 2
        assert "degenerate" in result.stderr

    def test_malformed_grid_rejected(self):
        result = runner.invoke(main, ["filter-fn", "--n", "1", "--tau",
                                      "1e-5", "--grid", "1e4:1e6"])
        assert result.exit_code == 2
        assert "start:stop:steps" in result.stderr


def test_reconstruct_psd_matches_library():
    result = invoke(["reconstruct-psd", "--t-phi", "5e-6",
                     "--n-pulses", "4"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    point = reconstruct_psd_point(
        5e-6, PulseSequence(n_pulses=4, tau=5e-6))
    assert payload["freq_hz"] == point.freq
    assert payload["psd"] == point.value
    assert payload["units"] == "freq_noise"


class TestPeriodogramAndPowerlaw:
    def test_round_trip_recovers_exponent(self, tmp_path):
        n, dt = 4096, 0.5
        noise = synthesize_noise(
            SyntheticNoise(amplitude=2e4, alpha=1.3, f_min=1.0 / (n * dt),
                           f_max=0.5 / dt, seed=5), dt, n)
        series_path = tmp_path / "series.csv"
        write_frequency_series(series_path, FrequencySeries(
            timestamps=np.arange(n) * dt, freqs=noise.samples))
        result = invoke(["periodogram", str(series_path)])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "freq_hz,psd,units"
        assert len(lines) == 1 + n // 2
        psd_path = tmp_path / "psd.csv"
        psd_path.write_text(result.stdout)
        fit_result = invoke(["powerlaw-fit", str(psd_path)])
        assert fit_result.exit_code == 0
        fit = json.loads(fit_result.stdout)
        assert fit["exponent"] == pytest.approx(1.3, abs=0.2)

    def test_powerlaw_needs_three_points(self, tmp_path):
        path = tmp_path / "psd.csv"
        path.write_text(format_csv(dict(zip(PSD_HEADER, (
            [1.0, 2.0], [2.0, 1.0], ["freq_noise", "freq_noise"])))))
        result = runner.invoke(main, ["powerlaw-fit", str(path)])
        assert result.exit_code == 1
        assert "at least 3" in result.stderr


class TestBadInputFiles:
    """A malformed file ends in its diagnostic on stderr and exit 1."""

    def check(self, args, *expected):
        result = invoke(args)
        assert result.exit_code == 1
        assert result.stderr.startswith("[error] ")
        for text in expected:
            assert text in result.stderr

    def test_fit_decay_without_sidecar(self, tmp_path):
        path = tmp_path / "relax.csv"
        write_decay_trace(path, make_relaxation())
        (tmp_path / "relax.json").unlink()
        self.check(["fit-decay", str(path)], "relax.json",
                   "cannot read JSON sidecar")

    def test_fit_spectrum_short_map(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("voltage_v,freq_hz,phase_rad\n0.0,5e9,0.1\n")
        self.check(["fit-spectrum", str(path), "--kind", "dispersion"],
                   "need at least 3 data rows, got 1")

    def test_periodogram_empty_file(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("")
        self.check(["periodogram", str(path)], f"{path}: empty file")

    def test_powerlaw_empty_file(self, tmp_path):
        path = tmp_path / "psd.csv"
        path.write_text("")
        self.check(["powerlaw-fit", str(path)], f"{path}: empty file")

    def test_powerlaw_short_row(self, tmp_path):
        path = tmp_path / "psd.csv"
        path.write_text("freq_hz,psd,units\n1.0,2.0\n")
        self.check(["powerlaw-fit", str(path)],
                   f"{path}:row 2: expected 3 cells, got 2")


# test id -> (arguments, text of the one stderr line)
BAD_ARGUMENTS = {
    "reconstruct-psd": (["reconstruct-psd", "--t-phi", "5e-6",
                         "--n-pulses", "0"], "n_pulses >= 1"),
    # t_phi**2 overflows, or underflows to a zero denominator
    "reconstruct-psd-t-phi-overflow": (["reconstruct-psd", "--t-phi", "1e300",
                                        "--n-pulses", "1"], "t_phi = 1e+300"),
    "reconstruct-psd-t-phi-underflow": (["reconstruct-psd", "--t-phi",
                                         "1e-300", "--n-pulses", "1"],
                                        "t_phi = 1e-300"),
    "filter-fn": (["filter-fn", "--n", "0", "--tau", "1e-5", "--grid",
                   "1e4:1e6:3", "--peak"], "n_pulses >= 1"),
    "simulate": (["simulate", "--amplitude", "1e8", "--alpha", "5",
                  "--fmin", "1e3", "--fmax", "1e6", "--n-pulses", "1",
                  "--tau-grid", "5e-6:2e-5:4", "--n-traj", "8"], "alpha"),
    "thermal-model": (["thermal-model", "--fq", "5e9", "--fr", "5.6e9",
                       "--kappa", "-1", "--chi", "-1e5", "--t1-zero", "1e-5",
                       "--temps", "0.05:0.4:3"], "kappa"),
    "resonator-calc": (["resonator-calc", "--tc", "-1", "--rsq", "64",
                        "--width", "2e-6", "--length", "1e-4",
                        "--fdiff", "5e9"], "t_c"),
    # the gap 1.76 k_B T_c underflows to 0: an ArithmeticError
    "resonator-calc-gap-underflow": (
        ["resonator-calc", "--tc", "1e-320", "--rsq", "64", "--width",
         "3e-7", "--length", "1e-3", "--fdiff", "5e9"], "division by zero"),
}


@pytest.mark.parametrize("args, message", BAD_ARGUMENTS.values(),
                         ids=BAD_ARGUMENTS.keys())
def test_bad_argument_is_one_line_on_stderr(args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a ValueError
    assert "Traceback" not in result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and message in lines[0]


RESONATOR = ["resonator-calc", "--tc", "3.8", "--rsq", "64", "--width",
             "3e-7", "--length", "1e-3", "--fdiff", "5e9"]
THERMAL = ["thermal-model", "--fq", "5e9", "--fr", "5.6e9", "--kappa", "1e6",
           "--chi", "-1e5", "--t1-zero", "1e-5", "--temps", "0.05:0.4:3"]
SIMULATE = ["simulate", "--amplitude", "1e8", "--alpha", "1", "--fmin",
            "1e3", "--fmax", "1e6", "--n-pulses", "1", "--tau-grid",
            "5e-6:2e-5:4", "--n-traj", "8"]


# test id -> (arguments, the option that holds a non-finite value); a
# repeated option takes its last value
NON_FINITE = {
    "resonator-calc-tc-nan": (RESONATOR + ["--tc", "nan"], "--tc"),
    "thermal-model-fq-nan": (THERMAL + ["--fq", "nan"], "--fq"),
    "thermal-model-kappa-inf": (THERMAL + ["--kappa", "inf"], "--kappa"),
    "reconstruct-psd-t-phi-nan": (["reconstruct-psd", "--t-phi", "nan",
                                   "--n-pulses", "1"], "--t-phi"),
    "filter-fn-tau-nan": (["filter-fn", "--n", "1", "--tau", "nan",
                           "--grid", "1e4:1e6:3"], "--tau"),
    "simulate-dt-nan": (SIMULATE + ["--dt", "nan"], "--dt"),
    "fit-decay-t1-inf": (["fit-decay", __file__, "--t1", "inf"], "--t1"),
}


@pytest.mark.parametrize("args, option", NON_FINITE.values(),
                         ids=NON_FINITE.keys())
def test_non_finite_float_option_is_a_usage_error(args, option):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.stderr
    assert "is not a finite float" in result.stderr


def test_every_float_option_refuses_nan_and_inf():
    floats = [param for command in main.commands.values()
              for param in command.params
              if isinstance(param.type, click.types.FloatParamType)]
    assert floats
    for param in floats:
        for text in ("nan", "-inf"):
            with pytest.raises(click.BadParameter, match="finite"):
                param.type.convert(text, param, None)


class TestThermalModel:
    args = ["thermal-model", "--fq", "5.065e9", "--fr", "5.668e9",
            "--kappa", repr(2.0 * np.pi * 0.38e6),
            "--chi", repr(-2.0 * np.pi * 0.06e6),
            "--t1-zero", "11.6e-6", "--temps", "0.05:0.4:8"]

    def test_stdout_matches_library(self):
        result = invoke(self.args)
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "temp_k,t1_s,pe,n_th,gamma_phi"
        assert len(lines) == 9
        model = ThermalModel(f_q=5.065e9, f_r=5.668e9,
                             kappa=2.0 * np.pi * 0.38e6,
                             chi=-2.0 * np.pi * 0.06e6, t1_zero=11.6e-6)
        for line, temp in zip(lines[1:], np.linspace(0.05, 0.4, 8)):
            cells = [float(c) for c in line.split(",")]
            n_th = photon_occupation(5.668e9, temp)
            assert cells[0] == pytest.approx(temp, rel=1e-12)
            assert cells[1] == t1_vs_temperature(model, temp)
            assert cells[2] == thermal_population(5.065e9, temp)
            assert cells[3] == n_th
            assert cells[4] == resonator_dephasing(model, n_th)

    def test_out_file(self, tmp_path):
        out = tmp_path / "thermal.csv"
        result = invoke(self.args + ["--out", str(out)])
        assert result.exit_code == 0
        assert result.stdout == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "temp_k,t1_s,pe,n_th,gamma_phi"
        assert len(lines) == 9
        assert out.read_bytes() == invoke(self.args).stdout_bytes


def test_resonator_calc_matches_library():
    result = invoke(["resonator-calc", "--tc", "3.8", "--rsq", "64.42",
                     "--width", "2e-6", "--length", "100e-6",
                     "--fdiff", "5.6681e9"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    l_k = kinetic_inductance(FilmParams(t_c=3.8, r_square=64.42))
    model = lumped_model(l_k, width=2e-6, length=100e-6, f_diff=5.6681e9)
    assert payload["l_k_h_per_square"] == l_k
    assert payload["l_diff"] == model.l_diff
    assert payload["c_diff"] == model.c_diff
    assert payload["z_diff"] == model.z_diff


class TestFitDecay:
    def test_relaxation(self, tmp_path):
        path = tmp_path / "relax.csv"
        write_decay_trace(path, make_relaxation(noise=0.01, seed=1),
                          bias_mv=1.5)
        result = invoke(["fit-decay", str(path)])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["kind"] == "relaxation"
        assert payload["t1"] == pytest.approx(11.6e-6, rel=0.05)
        assert payload["meta_bias_mv"] == 1.5
        assert payload["flags"] == []

    def test_cpmg_needs_t1(self, tmp_path):
        path = tmp_path / "cpmg.csv"
        write_decay_trace(path, make_cpmg(4, noise=0.005, seed=3))
        result = runner.invoke(main, ["fit-decay", str(path)])
        assert result.exit_code == 2
        assert "--t1" in result.stderr

    def test_cpmg_with_t1(self, tmp_path):
        path = tmp_path / "cpmg.csv"
        write_decay_trace(path, make_cpmg(4, noise=0.005, seed=3))
        result = invoke(["fit-decay", str(path), "--t1", "11.94e-6"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["t_phi"] == pytest.approx(5e-6, rel=0.05)
        assert payload["n_pulses"] == 4


class TestSimulate:
    args = ["simulate", "--amplitude", "1e8", "--alpha", "1.0",
            "--fmin", "1.1e3", "--fmax", "1e6", "--n-pulses", "1",
            "--tau-grid", "5e-6:2e-5:4", "--n-traj", "8"]

    def test_deterministic(self):
        first = invoke(self.args)
        second = invoke(self.args)
        assert first.exit_code == 0
        assert first.stdout == second.stdout
        lines = first.stdout.splitlines()
        assert lines[0] == "tau_s,pe"
        assert len(lines) == 5

    def test_seed_changes_output(self):
        base = invoke(self.args)
        other = invoke(self.args + ["--seed", "7"])
        assert base.stdout != other.stdout

    def test_tau_pi_option_removed(self):
        # the Monte Carlo models instantaneous pulses only
        result = invoke(self.args + ["--tau-pi", "1e-6"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_out_writes_trace(self, tmp_path):
        out = tmp_path / "sim.csv"
        result = invoke(self.args + ["--out", str(out)])
        assert result.exit_code == 0
        trace, meta = load_decay_trace(out)
        assert trace.kind == "echo"
        assert trace.n_pulses == 1
        assert len(trace.times) == 4
        assert np.all(trace.populations <= 1.0)
        assert out.read_bytes() == invoke(self.args).stdout_bytes


class TestFitSpectrum:
    @pytest.mark.parametrize("given", [[], ["--f-r", "5.668e9"],
                                       ["--kappa", "2.4e6"]])
    def test_transmission_needs_f_r_and_kappa(self, given):
        result = runner.invoke(main, ["fit-spectrum", __file__, "--kind",
                                      "transmission", *given])
        assert result.exit_code == 2
        assert "transmission fits need --f-r and --kappa" in result.stderr

    def test_transmission(self, tmp_path):
        truth = CavityQubitParams(f_r=5.668e9, kappa=2.0 * np.pi * 0.38e6,
                                  f_q=5.668e9, gamma=2.0 * np.pi * 3.18e6,
                                  g=2.0 * np.pi * 5e6)
        freqs = np.linspace(5.653e9, 5.683e9, 201)
        amps = np.abs(transmission(truth, freqs))
        path = tmp_path / "s21.csv"
        path.write_text("freq_hz,amp\n" + "\n".join(
            f"{float(f)!r},{float(a)!r}" for f, a in zip(freqs, amps)) + "\n")
        result = invoke(["fit-spectrum", str(path), "--kind", "transmission",
                         "--f-r", "5.668e9",
                         "--kappa", repr(2.0 * np.pi * 0.38e6)])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["g"] == pytest.approx(2.0 * np.pi * 5e6, rel=0.05)
        assert payload["f_q"] == pytest.approx(5.668e9, rel=1e-4)

    def test_dispersion(self, tmp_path):
        disp = QubitDispersion(f_ss=5.065e9, lever_c=6e11, v_ss=0.0)
        voltages = np.linspace(-2e-4, 2e-4, 9)
        freqs = np.linspace(5.063e9, 5.069e9, 240)
        rows = []
        for v in voltages:
            f_q = qubit_frequency(disp, v)
            phase = 0.02 + 0.8 / (1.0 + ((freqs - f_q) / 0.5e6) ** 2)
            rows.extend(f"{float(v)!r},{float(f)!r},{float(p)!r}"
                        for f, p in zip(freqs, phase))
        path = tmp_path / "map.csv"
        path.write_text("voltage_v,freq_hz,phase_rad\n" +
                        "\n".join(rows) + "\n")
        result = invoke(["fit-spectrum", str(path), "--kind", "dispersion"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["f_ss"] == pytest.approx(5.065e9, abs=5e4)
        assert payload["lever_c"] == pytest.approx(6e11, rel=0.05)
        assert payload["v_ss"] == pytest.approx(0.0, abs=2e-5)


class TestRunValidate:
    def test_validate_clean(self, tmp_path):
        q1_dataset(tmp_path / "q1")
        result = invoke(["validate", str(tmp_path / "q1" / "config.json")])
        assert result.exit_code == 0
        assert result.stdout.strip() == "ok"

    def test_run_writes_report(self, tmp_path):
        q1_dataset(tmp_path / "q1")
        result = invoke(["run", str(tmp_path / "q1" / "config.json")])
        assert result.exit_code == 0
        report_path = Path(result.stdout.strip())
        assert report_path.name == "report.json"
        assert report_path.exists()

    @staticmethod
    def _run_without_qubit_t1(root, extra_relax_bias=None):
        """qnl run on q1 without qubit.t1 and with cpmg8 moved to bias 3.0,
        optionally with a copy of the relaxation trace at another bias."""
        config = q1_dataset(root)
        del config["qubit"]["t1"]
        sidecar = root / "q1_cpmg8.json"
        sidecar.write_text(json.dumps(
            {**json.loads(sidecar.read_text()), "bias_mv": 3.0}))
        if extra_relax_bias is not None:
            (root / "q1_relax_b.csv").write_text(
                (root / "q1_relax.csv").read_text())
            (root / "q1_relax_b.json").write_text(json.dumps(
                {**json.loads((root / "q1_relax.json").read_text()),
                 "bias_mv": extra_relax_bias}))
            config["decay_traces"].append(str(root / "q1_relax_b.csv"))
        (root / "config.json").write_text(json.dumps(config))
        result = invoke(["run", str(root / "config.json")])
        assert result.exit_code == 0
        report = json.loads(Path(result.stdout.strip()).read_text())
        fits = {Path(f["file"]).name: f
                for f in report["sections"]["decay_fits"]["fits"]}
        return result, report, fits

    def test_cpmg_borrows_the_only_relaxation_t1(self, tmp_path):
        # no relaxation fit at bias 3.0 and no qubit.t1: the one
        # relaxation fit, at bias 2.0, lends its T1 without a warning
        result, report, fits = self._run_without_qubit_t1(tmp_path / "q1")
        assert result.stderr == ""
        assert report["warnings"] == []
        assert fits["q1_cpmg8.csv"]["bias_mv"] == 3.0
        assert (fits["q1_cpmg8.csv"]["params"]["t1"]
                == fits["q1_relax.csv"]["params"]["t1"])

    def test_cpmg_without_a_t1_is_skipped_with_a_warning(self, tmp_path):
        # two relaxation biases, neither 3.0: no T1 to choose
        result, report, fits = self._run_without_qubit_t1(
            tmp_path / "q1", extra_relax_bias=1.0)
        warning = (f"[warning] {tmp_path / 'q1' / 'q1_cpmg8.csv'}: no T1 "
                   "available for this bias and no qubit.t1 fallback; "
                   "trace skipped")
        assert result.stderr.splitlines() == [warning]
        assert report["warnings"] == [warning]
        assert "q1_cpmg8.csv" not in fits
        assert {"q1_cpmg1.csv", "q1_relax_b.csv"} <= set(fits)

    def test_bad_config_exits_nonzero(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output_dir": str(tmp_path / "out")}))
        validate = runner.invoke(main, ["validate", str(config)])
        assert validate.exit_code == 1
        assert "[error]" in validate.stdout
        run = runner.invoke(main, ["run", str(config)])
        assert run.exit_code == 1
        assert "[error]" in run.stderr
        assert not (tmp_path / "out").exists()

    def test_missing_config_path(self):
        result = runner.invoke(main, ["run", "/no/such/config.json"])
        assert result.exit_code == 2

    def test_unknown_config_key_reports_cleanly(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
        validate = runner.invoke(main, ["validate", str(config)])
        assert validate.exit_code == 1
        assert "unknown config key 'out_dir'" in validate.stdout
        assert "Traceback" not in validate.output
        run = runner.invoke(main, ["run", str(config)])
        assert run.exit_code == 1
        assert "unknown config key 'out_dir'" in run.stderr

    def test_missing_output_dir_reports_cleanly(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{}")
        result = runner.invoke(main, ["validate", str(config)])
        assert result.exit_code == 1
        assert result.stdout == (f"[error] {config}:column output_dir: "
                                 "missing required config key "
                                 "'output_dir'\n")

    def test_output_dir_that_is_a_file_has_no_leading_colon(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        config = q1_dataset(tmp_path / "q1")
        config["output_dir"] = str(blocker)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 1
        assert result.stdout == (f"[error] column output_dir: "
                                 f"{str(blocker)!r} exists and is not a "
                                 "directory\n")

    def test_malformed_json_reports_cleanly(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"output_dir": ')
        result = runner.invoke(main, ["validate", str(config)])
        assert result.exit_code == 1
        assert "invalid JSON" in result.stdout
