"""Command-line surface: one binary, six subcommands.

simulate    write synthetic recordings for a sensor preset
train       fit a rectifier bundle on a training recording
predict     rectify a recording with a fitted bundle
evaluate    score a bundle on two test recordings (scorecard + binned RSE)
gridsearch  run the hyperparameter grid and write the report CSV
stream      line-by-line rectification of `t,R` pairs on stdin

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import gridsearch as gs
from . import pipeline as pl
from .errors import DataError, NumericError
from .metrics import binned_rse_pair, write_binned_rse_csv, write_metric_rows_csv
from .series import fmt, load_recording, write_recording
from .simulate import load_presets, make_dataset, preset_by_name


def _parse_config_file(path: str) -> pl.PipelineConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"bad config file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"bad config file {path}: expected an object")
    return pl.config_from_dict(doc)


def _resolve_preset(args):
    if args.preset_file:
        presets = load_presets(args.preset_file)
        key = args.preset
        if key not in presets:
            # allow case-insensitive match for convenience
            lowered = {k.lower(): v for k, v in presets.items()}
            if key.lower() not in lowered:
                raise DataError(f"preset {key!r} not in {args.preset_file} (has {sorted(presets)})")
            return lowered[key.lower()]
        return presets[key]
    return preset_by_name(args.preset)


def _cmd_simulate(args) -> int:
    preset = _resolve_preset(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    recs = make_dataset(
        args.seed,
        preset,
        n_recordings=args.recordings,
        duration_s=args.duration_min * 60.0,
        jittered_timestamps=not args.no_jitter,
    )
    roles = ["train"] + [f"test_{chr(ord('a') + i)}" for i in range(len(recs) - 1)]
    for role, rec in zip(roles, recs):
        path = out_dir / f"{role}.csv"
        write_recording(rec, path)
        print(f"wrote {path} ({len(rec)} rows, {rec.t_s[-1]:.1f} s)")
    return 0


def _cmd_train(args) -> int:
    import dataclasses

    if args.config and args.default_best:
        raise DataError("give either --config or --default-best, not both")
    cfg = _parse_config_file(args.config) if args.config else pl.default_best_config()
    tc = cfg.train
    if args.max_iter is not None:
        tc = dataclasses.replace(tc, max_iter=args.max_iter)
    if args.seed is not None:
        tc = dataclasses.replace(tc, seed=args.seed)
    overrides = {}
    if tc is not cfg.train:
        overrides["train"] = tc
    if args.target:
        overrides["target"] = args.target
    if args.rate is not None:
        overrides["rate_hz"] = args.rate
    if args.seed is not None:
        overrides["init_seed"] = args.seed
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    rec = load_recording(args.train)
    bundle, report = pl.fit_pipeline(rec, cfg)
    pl.save_bundle(bundle, args.out)
    _, card = pl.predict_batch(bundle, rec)
    print(
        f"wrote {args.out}: {report.epochs_run} epochs, best loss {report.best_loss:.6g}, "
        f"train r2 {card.r2_pre:.3f} -> {card.r2_post:.3f}"
    )
    return 0


def _print_card(name: str, card, file=None) -> None:
    # late-bind stderr so runtime stream redirection is honored
    print(
        f"{name}: r2_pre={card.r2_pre:.4f} r2_post={card.r2_post:.4f} gain={card.gain:+.4f}",
        file=file if file is not None else sys.stderr,
    )


def _cmd_predict(args) -> int:
    bundle = pl.load_bundle(args.bundle)
    rec = load_recording(args.infile)
    card = pl.write_prediction_csv(bundle, rec, args.out)
    _print_card(Path(args.infile).name, card)
    return 0


def _cmd_evaluate(args) -> int:
    bundle = pl.load_bundle(args.bundle)
    ev = pl.evaluate(bundle, load_recording(args.test_a), load_recording(args.test_b))
    _print_card("test_a", ev.card_a)
    _print_card("test_b", ev.card_b)
    write_metric_rows_csv(ev.rows(), args.out)
    print(f"wrote {args.out}")
    if args.rse_out:
        write_binned_rse_csv(binned_rse_pair(ev.truth, ev.pre, ev.post, args.bin_width), args.rse_out)
        print(f"wrote {args.rse_out}")
    return 0


def _cmd_gridsearch(args) -> int:
    train_rec = load_recording(args.train)
    prepared_train = pl.prepare(train_rec, args.rate, args.target)
    tests = []
    for path in (args.test_a, args.test_b):
        rec = load_recording(path)
        tests.append(
            pl.prepare_with_scalers(
                rec,
                args.rate,
                args.target,
                prepared_train.scaler_g,
                prepared_train.scaler_t,
                prepared_train.scaler_source,
            )
        )
    configs = gs.grid_configs(gs.parse_indices(args.feature_sets), gs.parse_indices(args.topologies))
    report = gs.run_grid(
        prepared_train,
        tests[0],
        tests[1],
        configs,
        master_seed=args.seed,
        parallelism=args.parallel,
        max_iter=args.epochs,
        include_timing=args.timing,
    )
    gs.write_report_csv(report, args.out)
    n_ok = sum(1 for r in report.rows if r.status == "ok")
    print(f"wrote {args.out}: {len(report.rows)} configs, {n_ok} ok")
    if report.best is not None:
        best_row = next(r for r in report.rows if r.config_id == report.best)
        hidden = "x".join(str(h) for h in best_row.hidden)
        print(
            f"best: config {best_row.config_id} [{best_row.feature_set}, hidden {hidden}] "
            f"E={best_row.error:.6g} (r2 A={best_row.r2_test_a:.4f}, B={best_row.r2_test_b:.4f})"
        )
    return 0


def _cmd_stream(args) -> int:
    bundle = pl.load_bundle(args.bundle)
    session = pl.open_stream(bundle)
    for raw_line in sys.stdin:
        line = raw_line.strip()
        if not line:
            continue
        parts = line.split(",") if "," in line else line.split()
        if len(parts) != 2:
            raise DataError(f"bad stream line {line!r}: expected 't,R'")
        try:
            t, r = float(parts[0]), float(parts[1])
        except ValueError:
            raise DataError(f"bad stream line {line!r}: non-numeric field") from None
        out = pl.stream_push(session, (t, r))
        if out is not None:
            print(fmt(out), flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knitrect",
        description="Rectify drifting, hysteretic knitted-sensor readings with a smoothed-feature bank and a small MLP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write synthetic recordings for a sensor preset")
    p.add_argument("--preset", default="pes", help="pes | lycra, or a section name with --preset-file")
    p.add_argument("--preset-file", default=None, help="INI preset registry to read instead of the shipped presets")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--duration-min", type=float, default=23.0)
    p.add_argument("--recordings", type=int, default=3, help="train + N-1 test recordings")
    p.add_argument("--no-jitter", action="store_true", help="uniform 100 Hz timestamps, no acquisition jitter")
    p.add_argument("--out", required=True, help="output directory for train.csv, test_a.csv, ...")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="fit a rectifier bundle on a training recording")
    p.add_argument("--train", required=True, help="training recording CSV")
    p.add_argument("--config", default=None, help="pipeline config JSON file")
    p.add_argument("--default-best", action="store_true", help="use the grid-search winner configuration")
    p.add_argument("--seed", type=int, default=None, help="override init and shuffle seeds")
    p.add_argument("--target", choices=pl.TARGETS, default=None)
    p.add_argument("--rate", type=float, default=None, help="resample rate override (Hz)")
    p.add_argument("--max-iter", type=int, default=None, help="epoch cap override")
    p.add_argument("--out", required=True, help="bundle file to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="rectify a recording; scorecard goes to stderr")
    p.add_argument("--bundle", required=True)
    p.add_argument("--in", dest="infile", required=True, help="recording CSV")
    p.add_argument("--out", required=True, help="prediction CSV (t_s,g_bar,p,target_bar)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a bundle on two test recordings")
    p.add_argument("--bundle", required=True)
    p.add_argument("--test-a", required=True)
    p.add_argument("--test-b", required=True)
    p.add_argument("--out", required=True, help="scorecard CSV (metric,value)")
    p.add_argument("--rse-out", default=None, help="binned-RSE CSV over both test sets pooled")
    p.add_argument("--bin-width", type=float, default=1.0, help="RSE bin width in target units")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gridsearch", help="run the hyperparameter grid")
    p.add_argument("--train", required=True)
    p.add_argument("--test-a", required=True)
    p.add_argument("--test-b", required=True)
    p.add_argument("--target", choices=pl.TARGETS, default="force")
    p.add_argument("--rate", type=float, default=20.0)
    p.add_argument("--epochs", type=int, default=None, help="epoch cap per config (default: full budget)")
    p.add_argument(
        "--parallel", type=int, default=1, help="kept for compatibility; no effect (configs train in lockstep)"
    )
    p.add_argument("--seed", type=int, default=0, help="master seed for per-config streams")
    p.add_argument("--feature-sets", default=None, help="subset, e.g. '0,1' (canonical enumeration order)")
    p.add_argument("--topologies", default=None, help="subset, e.g. '0-5,12'")
    p.add_argument("--timing", action="store_true", help="fill the seconds column (breaks byte reproducibility)")
    p.add_argument("--out", required=True, help="report CSV")
    p.set_defaults(func=_cmd_gridsearch)

    p = sub.add_parser("stream", help="rectify `t,R` lines from stdin in real time")
    p.add_argument("--bundle", required=True)
    p.set_defaults(func=_cmd_stream)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except BrokenPipeError:
        # a downstream consumer closed our stdout; silence the shutdown flush
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
