"""Run the hyperparameter grid over a simulated dataset and report the winner.

The full space is 8 smoothing-factor sets x 114 hidden-size tuples = 912
configurations.  Configurations of one depth and similar widths train
together in lockstep.  A full sweep at the default reduced epoch budget
(300) on an 8-minute dataset is long; subset for a quick look:

    python scripts/run_grid_experiment.py --out grid_report.csv
    python scripts/run_grid_experiment.py --feature-sets 0,7 --topologies 0-9

If --data-dir already holds train/test_a/test_b.csv those recordings are
reused, so repeated sweeps stay comparable.
"""

import argparse
import time
from pathlib import Path

import knitrect as kr

ROLES = ("train.csv", "test_a.csv", "test_b.csv")


def load_or_simulate(data_dir: Path, seed: int, duration_min: float):
    if not all((data_dir / name).exists() for name in ROLES):
        print(f"simulating {duration_min:g}-minute PES dataset (seed {seed}) into {data_dir}/")
        data_dir.mkdir(parents=True, exist_ok=True)
        recs = kr.make_dataset(seed, kr.PES_PRESET, duration_s=duration_min * 60.0)
        for name, rec in zip(ROLES, recs):
            kr.write_recording(rec, data_dir / name)
    return [kr.load_recording(data_dir / name) for name in ROLES]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data-dir", default="grid_data", help="dataset directory (simulated on first use)")
    ap.add_argument("--seed", type=int, default=42, help="dataset master seed")
    ap.add_argument("--duration-min", type=float, default=8.0, help="recording length when simulating")
    ap.add_argument("--target", choices=("force", "displacement"), default="force")
    ap.add_argument("--rate", type=float, default=20.0)
    ap.add_argument("--epochs", type=int, default=300, help="reduced per-config epoch cap")
    ap.add_argument("--master-seed", type=int, default=0, help="seed for the per-config init/shuffle streams")
    ap.add_argument("--feature-sets", default=None, help="subset, e.g. '0,1,7'")
    ap.add_argument("--topologies", default=None, help="subset, e.g. '0-9,20'")
    ap.add_argument("--timing", action="store_true", help="record per-config seconds in the report")
    ap.add_argument("--out", default="grid_report.csv")
    args = ap.parse_args()

    train_rec, a_rec, b_rec = load_or_simulate(Path(args.data_dir), args.seed, args.duration_min)
    train = kr.prepare(train_rec, args.rate, args.target)
    test_a, test_b = (
        kr.prepare_with_scalers(
            rec, args.rate, args.target, train.scaler_g, train.scaler_t, train.scaler_source
        )
        for rec in (a_rec, b_rec)
    )

    configs = kr.grid_configs(kr.parse_indices(args.feature_sets), kr.parse_indices(args.topologies))
    print(f"{len(configs)} configurations, epoch cap {args.epochs}")
    started = time.perf_counter()
    report = kr.run_grid(
        train,
        test_a,
        test_b,
        configs,
        master_seed=args.master_seed,
        max_iter=args.epochs,
        include_timing=args.timing,
    )
    elapsed = time.perf_counter() - started

    kr.write_report_csv(report, args.out)
    ok_rows = [r for r in report.rows if r.status == "ok"]
    print(f"wrote {args.out}: {len(ok_rows)}/{len(report.rows)} ok in {elapsed:.0f}s")

    print("\ntop configurations by combined error E:")
    print(f"{'id':>5}  {'feature set':<10} {'hidden':<12} {'E':>9} {'r2 A':>7} {'r2 B':>7}")
    for r in sorted(ok_rows, key=lambda r: r.error)[:10]:
        hidden = "x".join(str(h) for h in r.hidden)
        print(
            f"{r.config_id:>5}  {r.feature_set:<10} {hidden:<12} "
            f"{r.error:>9.5f} {r.r2_test_a:>7.4f} {r.r2_test_b:>7.4f}"
        )
    best = kr.best_config(report)
    print(f"\nbest: {best.feature_set.label} with hidden {best.hidden}")


if __name__ == "__main__":
    main()
