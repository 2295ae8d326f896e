"""Tests of the benchmark harness: output contract, checks and tracing.

Each workload runs a short pass.  The workloads take a while (one
psd_sweep cycle is a few seconds, one mc_oracle ensemble about two), so
mc_oracle runs two of its ops in-process instead of a whole cycle.
"""

import json
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _assert_printed(lines, result, entries):
    text = "\n".join(lines)
    assert set(result["metrics"]) == {e["name"] for e in entries}
    for entry in entries:
        assert NAME.fullmatch(entry["name"])
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert re.search(rf"^{re.escape(entry['name'])} +\S+ "
                         rf"{re.escape(entry['unit'])}\b", text, re.M)


def test_spec_names_units_and_bounds():
    entries = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {e["name"]: e["unit"] for e in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {e["name"]: e["unit"] for e in SPEC["per_layer"]} == \
        tracing.LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_pipeline_batch_end_to_end_pass():
    lines, result = _bench("--workload", "pipeline_batch", "--seed", "0",
                           "--seconds", "0.1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    _assert_printed(lines, result, SPEC["end_to_end"])
    assert re.search(r"^fail_ratio +0 ", "\n".join(lines), re.M)
    assert re.search(r"^op_p50_ms .*\(n=\d+\)", "\n".join(lines), re.M)


def test_pipeline_batch_traced_pass_on_another_seed():
    lines, result = _bench("--workload", "pipeline_batch", "--seed", "1",
                           "--seconds", "0.1", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    _assert_printed(lines, result, SPEC["per_layer"])
    assert "op self times within wall time: True" in "\n".join(lines)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["decayfit.fit_calls"] == 42 + 6
    assert metrics["fileio.load_calls"] == 42 + 4
    assert metrics["noisespec.reconstruct_calls"] == 30
    assert metrics["mcsim.simulate_calls"] == 0
    assert metrics["pipeline.report_bytes"] > 0


def test_psd_sweep_end_to_end_pass_on_another_seed():
    lines, result = _bench("--workload", "psd_sweep", "--seed", "1",
                           "--seconds", "0.1", "--trace", "0")
    assert result["correct"] and result["attempted"] == 20
    _assert_printed(lines, result, SPEC["end_to_end"])
    bias = re.search(r"^psd_log_bias +(\S+) ln", "\n".join(lines), re.M)
    assert 0.0 < float(bias.group(1)) < 0.69


def test_mc_oracle_ops_traced_on_another_seed(tmp_path):
    wl = workloads.build("mc_oracle", 1, tmp_path)
    wl.setup()
    ops = {op.name: op for op in wl.cycle}
    assert len(ops) == 9
    with tracing.Tracer() as tracer:
        results = [run.run_op(ops[name], tracer, i) for i, name in
                   enumerate(("chi7_a1.0_n1", "pair8_n0"))]
    # the static-offset warning of the pair is expected and filtered
    assert [ok for _, ok, _ in results] == [True, True]
    assert results[0][2]["chi_rel_err"] < workloads.CHI_TOL
    metrics = tracing.layer_metrics(tracer.spans, 2, 1.0)
    assert metrics["mcsim.simulate_calls"] == 1
    assert metrics["mcsim.traj"] == (workloads.MC_TRAJ
                                     + workloads.PAIR_TRAJ) / 2
    assert metrics["mcsim.us_per_traj"] > 0
    assert metrics["fileio.load_calls"] == 0


def test_chi_check_reports_unresolved_delays():
    # 1 us is below the resolved limit of 20 N dt = 25 us at N = 8
    chi = np.array([0.1, 0.7])
    chi_mc = chi * np.array([0.5, 1.0])
    trace = SimpleNamespace(times=np.array([1e-6, 25e-6]),
                            populations=(1.0 + np.exp(-chi_mc)) / 2.0)
    ok, figures = workloads._check_chi(8, workloads.MC_DT)((trace, chi))
    assert ok
    assert figures["chi_rel_err"] == pytest.approx(0.0, abs=1e-12)
    assert figures["chi_rel_err_unresolved"] == pytest.approx(0.5)


def test_reference_kernel_runs_between_ops():
    op = workloads.Op("sleep", lambda: time.sleep(0.2),
                      lambda result: (True, {}))
    results, refs = run.measure([op], cycles=2)
    assert len(results) == 2 and refs
    assert sum(refs) >= run.REF_SHARE * sum(r[0] for r in results)
    metrics, extra = run.end_to_end(results, refs, 1.0)
    assert metrics["op_rel_time"] == pytest.approx(
        np.mean([r[0] for r in results]) / np.mean(refs))
    assert extra["ref_ms"] > 0


def test_unexpected_warning_fails_the_op():
    def run_op():
        warnings.warn("surprise")
        return 1

    op = workloads.Op("warns", run_op, lambda result: (True, {}))
    assert run.run_op(op)[1] is False


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "psd_sweep", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tree():
    # op 0:  root [0, 10]
    #          a [1, 4]  -> grandchild [2, 3]
    #          b [5, 9], c [8, 9.5] overlapping b, d [9.8, 11] past the end
    return [Span("root", 0.0, 10.0, None, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("g", 2.0, 3.0, 1, 0),
            Span("b", 5.0, 9.0, 0, 0),
            Span("c", 8.0, 9.5, 0, 0),
            Span("d", 9.8, 11.0, 0, 0)]


def test_self_time_arithmetic_on_hand_built_tree():
    selfs = tracing.self_times(_tree())
    # root covered by [1, 4] + [5, 9.5] + [9.8, 10]
    assert selfs == pytest.approx([10.0 - 3.0 - 4.5 - 0.2, 2.0, 1.0,
                                   4.0, 1.5, 1.2])
    # properly nested spans: the self times add up to the root's duration
    nested = [span for span in _tree() if span.name in ("root", "a", "g", "b")]
    assert sum(tracing.self_times(nested)) == pytest.approx(10.0)


def test_layer_metrics_on_hand_built_tree():
    spans = [Span("ddfilter.peak", 0.0, 0.010, None, 0),
             Span("ddfilter.filter", 0.001, 0.002, 0, 0, amount=512),
             Span("ddfilter.filter", 0.003, 0.004, 0, 0, amount=1),
             Span("mcsim.chi", 0.020, 0.030, None, 1),
             Span("ddfilter.filter", 0.021, 0.029, 3, 1, amount=9000),
             Span("decayfit.fit", 0.040, 0.041, None, 1, failed=True)]
    m = tracing.layer_metrics(spans, 2, 1.05)
    assert m["ddfilter.peak_calls"] == 0.5
    assert m["ddfilter.peak_self_ms"] == pytest.approx(8.0 / 2)
    assert m["ddfilter.filter_calls_per_peak"] == 2
    assert m["ddfilter.filter_calls"] == 1.5
    assert m["ddfilter.filter_points"] == (512 + 1 + 9000) / 2
    assert m["mcsim.chi_grid_points"] == 9000 / 2
    assert m["mcsim.chi_self_ms"] == pytest.approx(2.0 / 2)
    assert m["decayfit.fit_failed"] == 0.5
    assert m["mcsim.us_per_traj"] == 0.0
    assert m["trace.overhead_ratio"] == 1.05
    assert set(m) == set(tracing.LAYER_UNITS)


def test_tracer_restores_every_patched_name():
    originals = {(path, attr): tracing._owner(path).__dict__[attr]
                 for path, attr, _, _ in tracing.PATCHES}
    with tracing.Tracer():
        assert all(tracing._owner(path).__dict__[attr] is not fn
                   for (path, attr), fn in originals.items())
    assert all(tracing._owner(path).__dict__[attr] is fn
               for (path, attr), fn in originals.items())
