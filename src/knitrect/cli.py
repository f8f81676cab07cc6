"""Command-line surface: one binary, six subcommands, the pipeline's only front end.

simulate    write synthetic recordings for a sensor preset
train       fit a rectifier bundle on a training recording
predict     rectify a recording with a fitted bundle
evaluate    score a bundle on two test recordings (scorecard + binned RSE)
gridsearch  run the hyperparameter grid, write the report CSV, print the top 10
stream      line-by-line rectification of `t,R` pairs on stdin

Each subcommand parses its flags and calls public package functions; the
rules live in the modules that own them (preset lookup in
simulate.preset_by_name, config files in pipeline.load_config, recording
file names in simulate.role_name).

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import gridsearch as gs
from . import pipeline as pl
from .errors import DataError, NumericError
from .metrics import binned_rse, write_binned_rse_csv, write_metric_rows_csv
from .series import fmt, load_recording, write_recording
from .simulate import load_presets, make_dataset, preset_by_name, role_name


def _given(**flags) -> dict:
    return {k: v for k, v in flags.items() if v is not None}


def _cmd_simulate(args) -> int:
    preset = preset_by_name(args.preset, load_presets(args.preset_file) if args.preset_file else None)
    recs = make_dataset(
        args.seed,
        preset,
        n_recordings=args.recordings,
        duration_s=args.duration_min * 60.0,
        jittered_timestamps=not args.no_jitter,
    )
    # only once the settings have passed, so a rejected run leaves no directory
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, rec in enumerate(recs):
        path = out_dir / f"{role_name(i)}.csv"
        write_recording(rec, path)
        print(f"wrote {path} ({len(rec)} rows, {rec.t_s[-1]:.1f} s)")
    return 0


def _cmd_train(args) -> int:
    if args.config and args.default_best:
        raise DataError("give either --config or --default-best, not both")
    cfg = pl.load_config(args.config) if args.config else pl.default_best_config()
    doc = pl.config_to_dict(cfg)
    doc.update(_given(target=args.target, rate_hz=args.rate, init_seed=args.seed))
    doc["train"].update(_given(max_iter=args.max_iter, seed=args.seed))
    cfg = pl.config_from_dict(doc)
    rec = load_recording(args.train)
    bundle, report = pl.fit_pipeline(rec, cfg)
    pl.save_bundle(bundle, args.out)
    _, card = pl.predict_batch(bundle, rec)
    print(
        f"wrote {args.out}: {report.epochs_run} epochs, best loss {report.best_loss:.6g}, "
        f"train r2 {card.r2_pre:.3f} -> {card.r2_post:.3f}"
    )
    return 0


def _print_card(name: str, card) -> None:
    print(f"{name}: r2_pre={card.r2_pre:.4f} r2_post={card.r2_post:.4f} gain={card.gain:+.4f}", file=sys.stderr)


def _cmd_predict(args) -> int:
    bundle = pl.load_bundle(args.bundle)
    rec = load_recording(args.infile)
    card = pl.write_prediction_csv(bundle, rec, args.out)
    _print_card(Path(args.infile).name, card)
    return 0


def _cmd_evaluate(args) -> int:
    bundle = pl.load_bundle(args.bundle)
    ev = pl.evaluate(bundle, load_recording(args.test_a), load_recording(args.test_b))
    # bin before any output, so a bad --bin-width leaves no partial results
    curves = [binned_rse(ev.truth, est, args.bin_width) for est in (ev.pre, ev.post)] if args.rse_out else None
    _print_card("test_a", ev.card_a)
    _print_card("test_b", ev.card_b)
    write_metric_rows_csv(ev.rows(), args.out)
    print(f"wrote {args.out}")
    if curves is not None:
        write_binned_rse_csv(*curves, args.rse_out)
        print(f"wrote {args.rse_out}")
    return 0


def _cmd_gridsearch(args) -> int:
    train_rec, a_rec, b_rec = (load_recording(path) for path in (args.train, args.test_a, args.test_b))
    train = pl.prepare(train_rec, args.rate, args.target)
    test_a, test_b = (
        pl.prepare_with_scalers(rec, args.rate, args.target, train.scaler_g, train.scaler_t, train.scaler_source)
        for rec in (a_rec, b_rec)
    )
    configs = gs.grid_configs(gs.parse_indices(args.feature_sets), gs.parse_indices(args.topologies))
    report = gs.run_grid(train, test_a, test_b, configs, master_seed=args.seed, max_iter=args.epochs)
    gs.write_report_csv(report, args.out)
    n_ok = sum(1 for r in report.rows if r.status == "ok")
    print(f"wrote {args.out}: {len(report.rows)} configs, {n_ok} ok")
    ranked = report.ranked()
    if ranked:
        best = ranked[0]
        print(
            f"best: config {best.config_id} [{best.config.feature_set.label}, hidden {_hidden(best)}] "
            f"E={best.error:.6g} (r2 A={best.r2_test_a:.4f}, B={best.r2_test_b:.4f})"
        )
        print("\ntop configurations by combined error E:")
        print(f"{'id':>5}  {'feature set':<10} {'hidden':<12} {'E':>9} {'r2 A':>7} {'r2 B':>7}")
        for r in ranked[:10]:
            print(
                f"{r.config_id:>5}  {r.config.feature_set.label:<10} {_hidden(r):<12} "
                f"{r.error:>9.5f} {r.r2_test_a:>7.4f} {r.r2_test_b:>7.4f}"
            )
    return 0


def _hidden(row: gs.GridRow) -> str:
    return "x".join(str(h) for h in row.config.hidden)


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
    p.add_argument(
        "--preset",
        default="pes",
        help="pes | lycra, or a section of --preset-file: the exact name, else its one match ignoring case",
    )
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
    p.add_argument("--default-best", action="store_true", help="use the paper's published grid-search winner configuration")
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

    p = sub.add_parser("gridsearch", help="run the hyperparameter grid; prints the best config and the top 10")
    p.add_argument("--train", required=True)
    p.add_argument("--test-a", required=True)
    p.add_argument("--test-b", required=True)
    p.add_argument("--target", choices=pl.TARGETS, default="force")
    p.add_argument("--rate", type=float, default=20.0)
    p.add_argument("--epochs", type=int, default=None, help="epoch cap per config (default: full budget)")
    p.add_argument("--seed", type=int, default=0, help="master seed for per-config streams")
    p.add_argument("--feature-sets", default=None, help="subset, e.g. '0,1' (canonical enumeration order)")
    p.add_argument("--topologies", default=None, help="subset, e.g. '0-5,12'")
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
