"""knitrect benchmark: one workload, a closed loop of operations, checked outputs.

Run from the repository root:

    python3 knitbench/run.py --workload fit_8min --seed 42 --seconds 30 --trace 0
    python3 knitbench/run.py --workload all --seconds 30

One workload per process.  Set-up runs SETUP_REPEATS times (median
reported), one warm-up operation fills caches and gives the reference
outputs, then operations run back to back for --seconds.  Every operation's
outputs are checked.  The last stdout line is one JSON object: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics
from a traced run.  `--workload all` runs every workload in its own
process and prints the named metrics of each.  See knitbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("fit_8min", "grid_subset", "rectify_23min")
SETUP_REPEATS = 3
GRID_SEED = 3
DATASET_SEED = 42  # the acceptance data (workloads.ACCEPT_SEED)
# Gated times are host-speed normalized: wall time x CAL_REF_S / the
# calibration loop's time measured around it.  On the shared 2-core host
# this benchmark was defined on, the same operation ran 0.75-1.45 s in
# regimes lasting 10-100 s, which spread raw medians of 30-second runs by
# up to 38% (IQR over median, ten runs); normalized, by 2-6%.
# CAL_REF_S is the calibration loop's typical time on that host, so the
# gated figures read as seconds there.
CAL_REF_S = 0.035

# gated metrics, reported by every workload (unit per name); the
# workload-specific wall times are in the `named` line
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mib": "MiB"}

# per-layer metrics of the traced run; 0 where the workload's operation
# makes no call into that layer
PER_LAYER = {
    "series.load_recording_s": "s",
    "series.resample_s": "s",
    "series.rows_parsed": "count",
    "smoothing.feature_bank_s": "s",
    "smoothing.bank_push_us": "us",
    "smoothing.filter_updates": "count",
    "mlp.train_s": "s",
    "mlp.epochs": "count",
    "mlp.steps": "count",
    "mlp.step_us": "us",
    "mlp.gradient_us": "us",
    "mlp.step_other_us": "us",
    "mlp.forward_batch_s": "s",
    "mlp.forward_us": "us",
    "gridsearch.run_grid_s": "s",
    "gridsearch.config_s_p50": "s",
    "gridsearch.config_s_max": "s",
    "gridsearch.config_s_sum": "s",
    "gridsearch.effective_concurrency": "1",
    "gridsearch.ok_ratio": "1",
    "gridsearch.diverged": "count",
    "gridsearch.failed": "count",
    "simulate.make_dataset_s": "s",
    "simulate.samples": "count",
    "pipeline.prepare_s": "s",
    "pipeline.predict_batch_s": "s",
    "pipeline.fit_pipeline_s": "s",
    "pipeline.write_prediction_csv_s": "s",
    "pipeline.stream_push_us": "us",
    "pipeline.save_bundle_ms": "ms",
    "pipeline.load_bundle_ms": "ms",
    "trace.overhead_ratio": "1",
}
# computed from other metrics, not measured by a span of their own
DERIVED = ("mlp.step_us", "mlp.step_other_us", "gridsearch.effective_concurrency", "gridsearch.ok_ratio")

# per-operation time in spans of this name -> metric (seconds, scaled to the unit)
SPAN_TOTALS = {
    "series.load_recording_s": "load_recording",
    "series.resample_s": "resample",
    "smoothing.feature_bank_s": "feature_bank_with_windows",
    "mlp.train_s": "train",
    "mlp.forward_batch_s": "forward_batch",
    "gridsearch.run_grid_s": "run_grid",
    "pipeline.prepare_s": "prepare",
    "pipeline.predict_batch_s": "predict_batch",
    "pipeline.fit_pipeline_s": "fit_pipeline",
    "pipeline.write_prediction_csv_s": "write_prediction_csv",
    "pipeline.save_bundle_ms": "save_bundle",
    "pipeline.load_bundle_ms": "load_bundle",
}
# median time of one call of this span -> metric
SPAN_CALLS = {
    "smoothing.bank_push_us": "bank_push",
    "mlp.forward_us": "forward",
    "pipeline.stream_push_us": "stream_push",
}
# per-operation counters recorded by the traced operation -> metric
COUNTERS = (
    "series.rows_parsed",
    "smoothing.filter_updates",
    "mlp.epochs",
    "mlp.steps",
    "gridsearch.config_s_p50",
    "gridsearch.config_s_max",
    "gridsearch.config_s_sum",
    "gridsearch.diverged",
    "gridsearch.failed",
)
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DATASET_SEED, help="dataset master seed")
    ap.add_argument("--grid-seed", type=int, default=GRID_SEED, help="run_grid master seed")
    ap.add_argument("--seconds", type=float, default=30.0, help="measured time after set-up and warm-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy as np

    from workloads import calibration_s

    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "calibration_ms": statistics.median(calibration_s() for _ in range(5)) * 1e3,
    }


def timing_summary(samples, unit: str) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    import numpy as np

    xs = np.asarray(samples, dtype=float) * SCALE[unit]
    out = {"value": float(np.median(xs)), "unit": unit, "n": int(xs.size)}
    for p in (99.9, 99.0, 90.0):
        if xs.size * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = float(np.percentile(xs, p))
            break
    return out


def normalized(wall_s: float, cal_before: float, cal_after: float) -> float:
    """Wall time rescaled to a host whose calibration loop takes CAL_REF_S."""
    return wall_s * CAL_REF_S / ((cal_before + cal_after) / 2)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Loop:
    """Timings and check outcomes of one workload's operations."""

    def __init__(self, wl, tracer):
        from spans import LatencyHistogram
        from workloads import calibration_s

        self.calibration_s = calibration_s
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.pushes = LatencyHistogram()
        # (op index, wall seconds, normalized seconds, stage timings);
        # results are dropped once checked
        self.untraced: list[tuple[int, float, float, object]] = []
        self.traced: list[tuple[int, float]] = []  # (op index, normalized seconds)

    def tally(self, out, where: str) -> None:
        self.attempted += out.attempted
        self.failed += out.failed
        for problem in out.problems:
            print(f"check failed ({where}): {problem}", file=sys.stderr)

    def check_once(self, check, where: str) -> None:
        try:
            out = check()
        except Exception:  # noqa: BLE001 - a raising check is a failed unit
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return
        self.tally(out, where)

    def op(self, index: int, traced: bool, timed: bool) -> None:
        wl, tr = self.wl, self.tracer
        if tr is not None:
            tr.run_id = index
        cal = self.calibration_s(wl.threads)
        t0 = time.perf_counter()
        try:
            if traced:
                with tr.span("operation"):
                    res = wl.run_traced(tr)
            else:
                res = wl.run()
        except Exception:  # noqa: BLE001 - a raising call is a failed operation, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            self.attempted += wl.units
            self.failed += wl.units
            return
        dt = time.perf_counter() - t0
        norm = normalized(dt, cal, self.calibration_s(wl.threads))
        self.tally(wl.check(res), f"operation {index}")
        if timed and traced:
            self.traced.append((index, norm))
        elif timed:
            self.untraced.append((index, dt, norm, getattr(res, "timings", None)))
            if getattr(res, "push_ns", None):
                self.pushes.add(res.push_ns)


def run_workload(args) -> int:
    import workloads
    from spans import Tracer

    import knitrect

    if not Path(knitrect.__file__).resolve().is_relative_to(SRC_DIR):
        print(f"knitbench: imported knitrect from {knitrect.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    size = workloads.SIZES[args.size]
    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](size, args.seed, args.grid_seed, workdir)
        tracer = Tracer() if args.trace else None
        setup_s, setup_norm = [], []
        for k in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.run_id = -1 - k
            cal = workloads.calibration_s()
            t0 = time.perf_counter()
            wl.setup(tracer)
            setup_s.append(time.perf_counter() - t0)
            setup_norm.append(normalized(setup_s[-1], cal, workloads.calibration_s()))

        loop = Loop(wl, tracer)
        loop.op(0, traced=False, timed=False)  # warm-up; its outputs are the reference
        if hasattr(wl, "acceptance"):  # untimed, once a run
            loop.check_once(wl.acceptance, "acceptance data")
        deadline = time.perf_counter() + args.seconds
        index = 1
        # traced runs alternate traced and untraced operations, so both see the same host
        while index <= 2 or time.perf_counter() < deadline:
            loop.op(index, traced=tracer is not None and index % 2 == 1, timed=True)
            index += 1
        rss = peak_rss_mib()
        if not loop.untraced or (tracer is not None and not loop.traced):
            print("knitbench: no timed operation completed", file=sys.stderr)
            return 1
        env = environment()
        named = named_metrics(wl, loop, setup_s, rss)
        print("env " + json.dumps(env))
        print("named " + json.dumps(named))
        if tracer is None:
            metrics = {
                "setup_s": statistics.median(setup_norm),
                "op_s": statistics.median(norm for _, _, norm, _ in loop.untraced),
                "peak_rss_mib": rss,
            }
            units = END_TO_END
        else:
            cols = tracer.arrays()
            metrics = layer_metrics(wl, loop, tracer, cols)
            units = PER_LAYER
            print("selftime " + json.dumps(tracer.self_time_table(cols)))
            print("derived " + json.dumps(DERIVED))
            trace_path = BENCH_DIR / "traces" / f"{args.workload}.npz"  # the latest traced run
            tracer.write(cols, trace_path, {"workload": args.workload, "seed": args.seed, "env": env, "metrics": metrics})
        result = {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def named_metrics(wl, loop, setup_s, rss) -> dict:
    """The workload's metrics under the names later work refers to."""
    op_s = [dt for _, dt, _, _ in loop.untraced]
    named = {"setup_s": timing_summary(setup_s, "s")}
    if wl.name == "fit_8min":
        named["fit_s"] = timing_summary(op_s, "s")
        named["fit_r2_post_min"] = {"value": wl.r2_post_min(), "unit": "1"}
    elif wl.name == "grid_subset":
        named["grid_configs_per_s"] = {"value": wl.units / statistics.median(op_s), "unit": "1/s", "n": len(op_s)}
        named["grid_best_E"] = {"value": wl.best_row().error, "unit": "1"}
    else:
        results = [timings for *_, timings in loop.untraced]
        named["batch_rectify_s"] = timing_summary([r.batch_s for r in results], "s")
        stream_s = statistics.median(r.stream_s for r in results)
        named["stream_samples_per_s"] = {"value": len(wl.stream_input) / stream_s, "unit": "1/s", "n": len(results)}
        hist = loop.pushes
        named["stream_push_p50_us"] = {"value": hist.percentile_us(50), "unit": "us", "n": hist.n}
        named["stream_push_p99_us"] = {"value": hist.percentile_us(99), "unit": "us", "n": hist.n}
        if hist.n * 0.001 >= 10:
            named["stream_push_p50_us"]["p99.9"] = hist.percentile_us(99.9)
    named["error_rate"] = {"value": loop.failed / max(loop.attempted, 1), "unit": "ratio", "n": loop.attempted}
    named["peak_rss_mib"] = {"value": rss, "unit": "MiB"}
    return named


def layer_metrics(wl, loop, tracer, cols) -> dict:
    import workloads

    runs = [i for i, _ in loop.traced]
    m = {}
    for metric, span in SPAN_TOTALS.items():
        unit = PER_LAYER[metric]
        m[metric] = statistics.median(tracer.per_run_totals(cols, span, runs)) * SCALE[unit]
    for metric, span in SPAN_CALLS.items():
        calls = tracer.per_call(cols, span, runs)
        m[metric] = float(statistics.median(calls)) * 1e6 if calls.size else 0.0
    for name in COUNTERS:
        m[name] = statistics.median(tracer.counts.get((r, name), 0) for r in runs)
    rows = [tracer.counts.get((r, "gridsearch.rows"), 0) for r in runs]
    ok = [tracer.counts.get((r, "gridsearch.ok"), 0) for r in runs]
    m["gridsearch.ok_ratio"] = statistics.median(o / n if n else 0.0 for o, n in zip(ok, rows))
    grid_s = tracer.per_run_totals(cols, "run_grid", runs)
    conc = [tracer.counts.get((r, "gridsearch.config_s_sum"), 0) / s if s else 0.0 for r, s in zip(runs, grid_s)]
    m["gridsearch.effective_concurrency"] = statistics.median(conc)
    setups = [-1 - k for k in range(SETUP_REPEATS)]
    m["simulate.make_dataset_s"] = statistics.median(tracer.per_run_totals(cols, "make_dataset", setups))
    m["simulate.samples"] = tracer.counts.get((-1, "simulate.samples"), 0)
    m["mlp.step_us"] = m["mlp.train_s"] / m["mlp.steps"] * 1e6 if m["mlp.steps"] else 0.0
    m["mlp.gradient_us"] = workloads.gradient_us(*wl.gradient_inputs())
    m["mlp.step_other_us"] = m["mlp.step_us"] - m["mlp.gradient_us"] if m["mlp.steps"] else 0.0
    m["trace.overhead_ratio"] = statistics.median(norm for _, norm in loop.traced) / statistics.median(
        norm for _, _, norm, _ in loop.untraced
    )
    return m


def run_all(args) -> int:
    """Every workload in its own process; prints each one's named metrics."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--grid-seed", str(args.grid_seed), "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        named = next((json.loads(ln[6:]) for ln in lines if ln.startswith("named ")), {})
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"correct": False}
        ok = ok and proc.returncode == 0 and result["correct"]
        print(f"{name}: correct={result.get('correct')} attempted={result.get('attempted')} failed={result.get('failed')}")
        for metric, val in named.items():
            extra = "".join(f" {k}={v:.6g}" for k, v in val.items() if k not in ("value", "unit"))
            print(f"  {metric:22s} {val['value']:.6g} {val['unit']}{extra}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread, set before numpy loads: the only extra threads are
    # run_grid's pool workers
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC_DIR / "knitrect" / "__init__.py").is_file():
        print(f"knitbench: no knitrect sources at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
