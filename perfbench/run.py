"""qnl benchmark runner.

    python3 perfbench/run.py --workload {pipeline_batch,mc_oracle,psd_sweep,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The runner caps BLAS/OpenMP threads at
the number of usable CPUs before numpy is imported, imports qnl from the
checkout's own ``src/`` (and exits with code 1 when it is missing), builds
the workload's inputs from the seed and measures whole cycles of ops,
closed-loop with one client, for as many cycles as fit in ``--seconds``
(at least one).  Correctness checks run between ops, off the clock, and so
does a fixed reference kernel whose time op_rel_time divides by.
setup_s is the median of cold set-ups: this process's and two more, each
in a fresh process run with the internal ``--setup-only`` flag.

--trace 0 prints the end-to-end metrics; --trace 1 first measures an
untraced half run, then the same number of cycles with the tracer on, and
prints the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  ``--workload all`` runs the three
workloads one after the other, each in its own process.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("pipeline_batch", "mc_oracle", "psd_sweep")
# setup_s is the median over this many cold set-ups: the run's own and the
# rest each in a fresh process, from its first line to its first timed op
SETUP_SAMPLES = 3
# op_p90_ms needs at least ten samples beyond the 90th percentile
P90_MIN_OPS = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# between ops the runner times a fixed reference kernel until its total
# reaches this share of the op time so far
REF_SHARE = 0.1
E2E_UNITS = {"setup_s": "s", "op_rel_time": "ratio", "peak_rss_mb": "MB"}
# printed beside the gated metrics, ungated: the raw op times and rates move
# with the host's speed, which changes in spells lasting minutes;
# fail_ratio is 0 on a correct run, and the accuracy figures move with the
# seed
EXTRA_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
               "ref_ms": "ms", "fail_ratio": "ratio",
               "chi_rel_err": "ratio", "chi_rel_err_unresolved": "ratio",
               "psd_log_bias": "ln"}


def cap_threads() -> dict:
    """Limit native thread pools to the usable CPUs; return the caps."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = int(current) if current.isdigit() and 0 < int(current) < nproc \
            else nproc
        os.environ[var] = str(cap)
        caps[var] = cap
    return caps


def import_qnl():
    """Import qnl from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qnl" / "__init__.py").is_file():
        sys.exit(f"error: {src}/qnl not found; run from a qnl checkout")
    sys.path.insert(0, str(src))
    import qnl
    if Path(qnl.__file__).resolve().parent != (src / "qnl").resolve():
        sys.exit(f"error: imported qnl from {qnl.__file__}, not {src}")
    import workloads
    import tracing
    return workloads, tracing


def fingerprint(caps: dict) -> dict:
    import numpy
    import scipy
    info = {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "thread_cap": caps["OMP_NUM_THREADS"]}
    info["src_qnl_loc"] = sum(
        len(path.read_text().splitlines())
        for path in sorted((ROOT / "src" / "qnl").glob("*.py")))
    return info


def reference() -> float:
    """Time one pass of the host-speed reference kernel and return it.

    A pure-Python loop, then numpy allocation, FFT and sort of 2**18
    doubles: about 35 ms on the reference machine.  It runs no qnl code, so
    a change to qnl leaves it alone, while a slower or faster spell of the
    host moves it as it moves the ops.
    """
    import numpy as np
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    samples = np.random.default_rng(0).standard_normal(1 << 18)
    np.fft.rfft(samples)
    np.sort(samples)
    return time.perf_counter() - start


def cold_setup(args) -> float:
    """Set the workload up in a fresh process; return its setup seconds."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout.splitlines()[-1])


def run_op(op, tracer=None, op_id=0):
    """Time one op; return (seconds, ok, figures).  An exception, a failed
    check or an unexpected warning during the op counts as a failure."""
    if tracer is not None:
        tracer.op = op_id
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                result = op.run()
            finally:
                elapsed = time.perf_counter() - start
        ok, figures = op.check(result)
    except Exception:
        print(f"op {op.name} raised:\n{traceback.format_exc()}",
              file=sys.stderr)
        return elapsed, False, {}
    for warning in caught:
        print(f"op {op.name} warned: {warning.message}", file=sys.stderr)
    if not ok:
        print(f"op {op.name} failed its check: {figures}", file=sys.stderr)
    return elapsed, ok and not caught, figures


def measure(cycle, seconds=None, cycles=None, tracer=None):
    """Run exactly `cycles` whole cycles, or, given `seconds`, whole cycles
    while the next one (as long as the last) is expected to end within
    `seconds`, at least one.  After each op, time the reference kernel
    until its total reaches REF_SHARE of the op time so far.  Return a list
    of (seconds, ok, figures), one per op, and the reference times."""
    results, refs = [], [reference()]
    op_total = ref_total = 0.0
    start = time.perf_counter()
    done = 0
    while True:
        cycle_start = time.perf_counter()
        for op in cycle:
            results.append(run_op(op, tracer, len(results)))
            op_total += results[-1][0]
            while ref_total < REF_SHARE * op_total:
                refs.append(reference())
                ref_total += refs[-1]
        done += 1
        now = time.perf_counter()
        if cycles is not None:
            if done >= cycles:
                return results, refs[1:]
        elif now + (now - cycle_start) - start > seconds:
            return results, refs[1:]


def end_to_end(results, refs, setup_s) -> tuple[dict, dict]:
    """(metrics gated by BENCHMARK.json, extra figures printed alongside).

    op_rel_time is the mean op time over the mean reference time: the op
    cost in units of the host's current speed."""
    times = [r[0] for r in results]
    failed = sum(not r[1] for r in results)
    metrics = {
        "setup_s": setup_s,
        "op_rel_time": statistics.fmean(times) / statistics.fmean(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    extra = {"ops_per_s": len(times) / sum(times),
             "op_p50_ms": 1e3 * statistics.median(times),
             "ref_ms": 1e3 * statistics.median(refs)}
    if len(times) >= P90_MIN_OPS:
        extra["op_p90_ms"] = 1e3 * statistics.quantiles(times, n=10)[8]
    for key, name in (("chi_rel_err", "chi_rel_err"),
                      ("chi_rel_err_unresolved", "chi_rel_err_unresolved"),
                      ("psd_log_ratio", "psd_log_bias")):
        values = [r[2][key] for r in results if key in r[2]]
        if values:
            extra[name] = max(values)
    extra["fail_ratio"] = failed / len(results)
    return metrics, extra


def run_workload(args) -> int:
    caps = cap_threads()
    workloads, tracing = import_qnl()
    import_s = time.perf_counter() - _T0

    workdir = BENCH / "out" / args.workload
    workload = workloads.build(args.workload, args.seed, workdir)
    others = [] if args.setup_only else \
        [cold_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    start = time.perf_counter()
    workload.setup()
    setups = [import_s + time.perf_counter() - start] + others
    if args.setup_only:
        print(setups[0])
        return 0
    setup_s = statistics.median(setups)

    print(f"# {args.workload} seed={args.seed} "
          + " ".join(f"{k}={v}" for k, v in fingerprint(caps).items()))
    print(f"# setup: median of {SETUP_SAMPLES} cold set-ups, this process's "
          f"and {SETUP_SAMPLES - 1} in fresh ones, each from imports through "
          f"input generation and warm-up "
          f"({', '.join(f'{s:.3f}' for s in setups)} s)")

    if not args.trace:
        results, refs = measure(workload.cycle, seconds=args.seconds)
        metrics, extra = end_to_end(results, refs, setup_s)
        print(f"# {len(results)} ops in cycles of {len(workload.cycle)}, "
              f"{len(refs)} reference runs")
        units = E2E_UNITS
        for name, value in metrics.items():
            print(f"{name:<14} {value:.6g} {units[name]}")
        for name, value in extra.items():
            suffix = f"  (n={len(results)})" if name == "op_p50_ms" else ""
            print(f"{name:<14} {value:.6g} {EXTRA_UNITS[name]}{suffix}")
        self_ok = True
    else:
        plain, _ = measure(workload.cycle, seconds=args.seconds / 2)
        n_cycles = len(plain) // len(workload.cycle)
        with tracing.Tracer() as tracer:
            traced, _ = measure(workload.cycle, cycles=n_cycles,
                                tracer=tracer)
        overhead = (statistics.median(r[0] for r in traced)
                    / statistics.median(r[0] for r in plain))
        metrics = tracing.layer_metrics(tracer.spans, len(traced), overhead)
        results = plain + traced
        # the self times of one op's spans must fit inside its wall time
        own = [0.0] * len(traced)
        for span, self_s in zip(tracer.spans, tracing.self_times(tracer.spans)):
            own[span.op] += self_s
        self_ok = all(s <= r[0] for s, r in zip(own, traced))
        trace_path = workdir / f"trace-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"# {len(plain)} untraced + {len(traced)} traced ops, "
              f"{len(tracer.spans)} spans -> {trace_path.relative_to(ROOT)}; "
              f"op self times within wall time: {self_ok}")
        units = tracing.LAYER_UNITS
        for name, value in metrics.items():
            print(f"{name:<32} {value:.6g} {units[name]}")

    failed = sum(not r[1] for r in results)
    payload = {
        "correct": failed == 0 and self_ok,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(payload))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value
                        for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up once, print the setup seconds and exit: one cold setup_s sample
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one workload")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
