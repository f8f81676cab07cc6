"""Train and score the default rectifier on both shipped sensor presets.

For each preset (PES, Lycra) and each target quantity (force, displacement)
this simulates three independent recordings, fits the grid-search-winning
configuration on the first, and scores the other two.  At the defaults,
raw trend agreement (r2 pre) lands between roughly 0.4 (PES) and 0.8
(Lycra) and rectified agreement (r2 post) above 0.9, on both targets.

    python scripts/reproduce_pipeline.py                      # quick 8-minute recordings
    python scripts/reproduce_pipeline.py --duration-min 23    # full-length run
    python scripts/reproduce_pipeline.py --out-dir results/   # also save bundles + metrics
"""

import argparse
import dataclasses
from pathlib import Path

import knitrect as kr

TARGETS = ("force", "displacement")


def run_one(preset, recs, target, out_dir):
    cfg = dataclasses.replace(kr.default_best_config(), target=target)
    bundle, report = kr.fit_pipeline(recs[0], cfg)
    ev = kr.evaluate(bundle, recs[1], recs[2])

    if out_dir is not None:
        stem = f"{preset.name.lower()}_{target}"
        kr.save_bundle(bundle, out_dir / f"{stem}.json")
        kr.write_metric_rows_csv(ev.rows(), out_dir / f"{stem}_metrics.csv")

    return report, (ev.card_a, ev.card_b)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42, help="dataset master seed")
    ap.add_argument("--duration-min", type=float, default=8.0)
    ap.add_argument("--out-dir", default=None, help="write bundles and metric CSVs here")
    args = ap.parse_args()

    out_dir = None
    if args.out_dir is not None:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'preset':<8} {'target':<13} {'set':<7} {'r2 pre':>8} {'r2 post':>8} {'gain':>8}")
    for preset in (kr.PES_PRESET, kr.LYCRA_PRESET):
        recs = kr.make_dataset(args.seed, preset, duration_s=args.duration_min * 60.0)
        for target in TARGETS:
            report, cards = run_one(preset, recs, target, out_dir)
            for tag, card in zip(("test_a", "test_b"), cards):
                print(
                    f"{preset.name:<8} {target:<13} {tag:<7} "
                    f"{card.r2_pre:>8.4f} {card.r2_post:>8.4f} {card.gain:>+8.4f}"
                )
            print(
                f"{'':<8} {'':<13} {'(fit)':<7} "
                f"{report.epochs_run:>4} epochs, best loss {report.best_loss:.4g}"
            )
    if out_dir is not None:
        print(f"\nbundles and metric files written to {out_dir}/")


if __name__ == "__main__":
    main()
