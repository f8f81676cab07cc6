"""Eleven go/no-go checks across the whole toolkit.

Each test prints exactly one `ACCEPTANCE NN PASS|FAIL - description` line
(with the measured numbers) and then asserts, so a bare run of this file
reads as a release checklist.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import knitrect as kr
from knitrect.cli import main as cli_main
from knitrect.errors import DataError


def _run(capsys, num, desc, check):
    try:
        ok, detail = check()
    except Exception as exc:
        ok, detail = False, f"{type(exc).__name__}: {exc}"
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


# --- 1: enumeration counts ---------------------------------------------------------


def test_criterion_01_enumeration_counts(capsys):
    def check():
        t0 = time.perf_counter()
        n_topo = len(kr.enumerate_topologies())
        n_grid = len(kr.grid_configs())
        n_sets = len(kr.enumerate_feature_sets())
        dt = time.perf_counter() - t0
        ok = n_topo == 114 and n_grid == 912 and n_sets == 8 and dt < 1.0
        return ok, f"topologies={n_topo} grid={n_grid} sets={n_sets} dt={dt:.3f}s"

    _run(capsys, 1, "topology enumeration keeps 114 tuples; full grid has 912 configs", check)


# --- 2: smoothing factor sets --------------------------------------------------------

_ALPHA_TABLE = {
    "a2.5_n4": (0.4, 0.16, 0.064, 0.0256),
    "a2.5_n7": (0.4, 0.16, 0.064, 0.0256, 0.01024, 0.004096, 0.0016384),
    "a2.5_n10": (
        0.4, 0.16, 0.064, 0.0256, 0.01024, 0.004096, 0.0016384,
        0.00065536, 0.000262144, 0.0001048576,
    ),
    "a5_n4": (0.2, 0.04, 0.008, 0.0016),
    "a5_n7": (0.2, 0.04, 0.008, 0.0016, 0.00032, 6.4e-05, 1.28e-05),
    "a10_n3": (0.1, 0.01, 0.001),
    "a10_n4": (0.1, 0.01, 0.001, 0.0001),
    "baseline": (0.5, 0.1, 0.025, 0.0025),
}


def test_criterion_02_feature_sets(capsys):
    def check():
        sets = kr.enumerate_feature_sets()
        labels = [s.label for s in sets]
        if labels != list(_ALPHA_TABLE):
            return False, f"labels={labels}"
        worst = max(
            abs(a - b)
            for s in sets
            for a, b in zip(s.alphas, _ALPHA_TABLE[s.label])
        )
        return worst <= 1e-12, f"worst deviation {worst:.2e}"

    _run(capsys, 2, "all 8 smoothing factor sets match the tabulated values to 1e-12", check)


# --- 3: metric oracles ---------------------------------------------------------------


def test_criterion_03_metric_oracles(capsys):
    def check():
        devs = [
            abs(kr.r_squared(np.array([1.0, 2, 3]), np.array([1.0, 2, 2])) - (1 - 3 / 7)),
            abs(kr.gain(0.471, 0.791) - 0.320),
            abs(kr.gain(0.673, 0.767) - 0.094),
            abs(kr.combined_error(1.0, 1.0) - 0.0),
            abs(kr.combined_error(0.0, 0.0) - 1.0),
        ]
        e_dev = abs(kr.combined_error(0.791, 0.767) - 0.048985)
        curve = kr.binned_rse(np.array([1.0, 1, 3, 3]), np.array([1.0, 1, 3, 5]), 2.0)
        binned_ok = (
            tuple(curve.counts) == (2, 2)
            and abs(curve.rse[0] - 0.0) <= 1e-12
            and abs(curve.rse[1] - 2.0) <= 1e-12
        )
        ok = max(devs) <= 1e-12 and e_dev <= 1e-9 and binned_ok
        return ok, f"worst={max(devs):.2e} E_dev={e_dev:.2e} rse={curve.rse}"

    _run(capsys, 3, "r2 / gain / combined error / binned RSE match hand-computed values", check)


# --- 4: gradient correctness ---------------------------------------------------------


def _random_net_and_batch(seed, sizes=(5, 4, 2, 2, 1), n=8):
    # nonzero biases keep ReLU pre-activations off the kink, where central
    # differences and the subgradient legitimately disagree
    rng = np.random.default_rng(seed + 1000)
    model = kr.mlp_new(sizes, seed)
    for b in model.biases:
        b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
    return model, rng.normal(size=(n, sizes[0])), rng.normal(size=n)


def _fd_worst_error(model, X, y, eps=1e-5):
    gw, gb = kr.gradient(model, X, y)
    worst = 0.0
    for grads, params in ((gw, model.weights), (gb, model.biases)):
        for g, p in zip(grads, params):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = p[ix]
                p[ix] = orig + eps
                lp = kr.mse_loss(model, X, y)
                p[ix] = orig - eps
                lm = kr.mse_loss(model, X, y)
                p[ix] = orig
                fd = (lp - lm) / (2.0 * eps)
                worst = max(worst, abs(g[ix] - fd) / max(abs(g[ix]) + abs(fd), 1e-8))
    return worst


def test_criterion_04_gradient_against_finite_differences(capsys):
    def check():
        t0 = time.perf_counter()
        worst = max(_fd_worst_error(*_random_net_and_batch(seed)) for seed in range(5))
        dt = time.perf_counter() - t0
        return worst < 1e-4 and dt < 10.0, f"worst rel err {worst:.2e} dt={dt:.2f}s"

    _run(capsys, 4, "backprop matches central differences on 5 seeds of a (5,4,2,2,1) net", check)


# --- 5: smoothing filter properties ---------------------------------------------------


def test_criterion_05_smoothing_properties(capsys):
    def check():
        rng = np.random.default_rng(0)
        xs = rng.normal(size=200)
        identity_ok = np.array_equal(kr.smooth(xs, 1.0, 1), xs)

        const = np.full(100, 3.7)
        const_ok = np.all(kr.smooth(const, 0.2, 10) == 3.7)

        imp = np.zeros(100)
        imp[10] = 1.0
        out = kr.smooth(imp, 0.3, 1)
        imp_dev = max(abs(out[10 + k] - 0.3 * 0.7**k) for k in range(51))

        aset = kr.alpha_set(2.5, 7)
        series = kr.UniformSeries(20.0, 0.0, rng.normal(size=150))
        windows = kr.bank_windows(aset, 20.0, len(series))
        batch = kr.feature_bank_with_windows(series, aset.alphas, windows).values
        bank = kr.make_bank(aset.alphas, windows)
        rows = [kr.bank_push(bank, float(v)) for v in series.values]
        warm = max(windows) - 1
        stream_dev = max(
            np.abs(np.asarray(rows[i]) - batch[i]).max() for i in range(warm, len(series))
        )
        none_ok = all(r is None for r in rows[:warm])

        ok = identity_ok and const_ok and imp_dev <= 1e-12 and stream_dev <= 1e-9 and none_ok
        return ok, f"impulse dev {imp_dev:.2e}, stream dev {stream_dev:.2e}"

    _run(capsys, 5, "alpha=1 identity, constant fixed point, impulse law, stream==batch", check)


# --- 6 & 7: end-to-end rectification gain ----------------------------------------------


def test_criterion_06_force_rectification_gain(capsys, pes_8min):
    def check():
        t0 = time.perf_counter()
        bundle, _ = kr.fit_pipeline(pes_8min[0], kr.default_best_config())
        cards = [kr.predict_batch(bundle, rec)[1] for rec in pes_8min[1:]]
        dt = time.perf_counter() - t0
        bands = all(
            0.35 <= c.r2_pre <= 0.60 and c.r2_post >= 0.75 and c.gain >= 0.15 for c in cards
        )
        detail = " ".join(f"{c.r2_pre:.3f}->{c.r2_post:.3f}" for c in cards)
        return bands and dt < 300.0, f"{detail} dt={dt:.0f}s"

    _run(capsys, 6, "force target: both synthetic test sets gain >= 0.15 up to r2 >= 0.75", check)


def test_criterion_07_displacement_rectification_gain(capsys, pes_8min):
    def check():
        cfg = dataclasses.replace(kr.default_best_config(), target="displacement")
        bundle, _ = kr.fit_pipeline(pes_8min[0], cfg)
        cards = [kr.predict_batch(bundle, rec)[1] for rec in pes_8min[1:]]
        ok = all(c.gain >= 0.15 for c in cards)
        detail = " ".join(f"{c.r2_pre:.3f}->{c.r2_post:.3f}" for c in cards)
        return ok, detail

    _run(capsys, 7, "displacement target: both synthetic test sets gain >= 0.15", check)


# --- 8: drift removal -------------------------------------------------------------------


@pytest.fixture(scope="module")
def drift_dataset():
    """Noise-free, jitter-free full-length recordings with drift active."""
    return kr.make_dataset(
        42, kr.PES_PRESET.noise_free(), duration_s=1380.0, jittered_timestamps=False
    )


def test_criterion_08_drift_removal(capsys, drift_dataset):
    def check():
        bundle, _ = kr.fit_pipeline(drift_dataset[0], kr.default_best_config())
        ratios = []
        for rec in drift_dataset:
            prepared = kr.prepare_with_scalers(
                rec, 20.0, "force", bundle.scaler_g, bundle.scaler_t, "train"
            )
            p = kr.predict_batch(bundle, rec)[0].values
            t = prepared.g_series().timestamps()
            pre_slope = np.polyfit(t, prepared.g_bar - prepared.target_bar, 1)[0]
            post_slope = np.polyfit(t, p - prepared.target_bar, 1)[0]
            ratios.append(abs(post_slope / pre_slope))
        ok = all(r <= 0.10 for r in ratios)
        return ok, "ratios " + " ".join(f"{r:.4f}" for r in ratios)

    _run(capsys, 8, "residual drift slope shrinks to <= 10% of the raw channel's", check)


# --- 9: reduced grid determinism ----------------------------------------------------------


def test_criterion_09_grid_determinism_across_runs(capsys, pes_small_dir, tmp_path):
    def check():
        t0 = time.perf_counter()
        outs = []
        for run in ("1", "2"):
            out = tmp_path / f"report_{run}.csv"
            rc = cli_main(
                [
                    "gridsearch",
                    "--train", str(pes_small_dir / "train.csv"),
                    "--test-a", str(pes_small_dir / "test_a.csv"),
                    "--test-b", str(pes_small_dir / "test_b.csv"),
                    "--feature-sets", "0,7",
                    "--topologies", "0-5",
                    "--epochs", "200",
                    "--seed", "3",
                    "--out", str(out),
                ]
            )
            if rc != 0:
                return False, f"exit code {rc} in run {run}"
            outs.append(out.read_bytes())
        dt = time.perf_counter() - t0
        n_rows = len(outs[0].splitlines()) - 1
        ok = outs[0] == outs[1] and n_rows == 12 and dt < 180.0
        return ok, f"{n_rows} configs, byte-identical={outs[0] == outs[1]}, dt={dt:.0f}s"

    _run(capsys, 9, "12-config grid reports are byte-identical across two runs", check)


# --- 10: bundle round trip ------------------------------------------------------------------


def test_criterion_10_bundle_round_trip(capsys, small_bundle, pes_small, tmp_path):
    def check():
        path = tmp_path / "bundle.json"
        kr.save_bundle(small_bundle, path)
        reloaded = kr.load_bundle(path)
        before, _ = kr.predict_batch(small_bundle, pes_small[1])
        after, _ = kr.predict_batch(reloaded, pes_small[1])
        round_trip_ok = np.array_equal(before.values, after.values)

        doc = json.loads(path.read_text())
        doc["payload"]["scaler_g"]["mean"] += 1e-9
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        try:
            kr.load_bundle(bad)
            rejected = False
        except DataError:
            rejected = True
        return round_trip_ok and rejected, f"zero-diff={round_trip_ok} tamper-rejected={rejected}"

    _run(capsys, 10, "bundle save/load predicts identically; tampered file is rejected", check)


# --- 11: simulator statistics ------------------------------------------------------------------


def test_criterion_11_simulator_statistics(capsys, pes_23min_train):
    def check():
        traj, rec = pes_23min_train
        v = np.abs(np.diff(traj.d_mm) / np.diff(traj.t_s))
        strain = traj.strain()
        rates = 1.0 / np.diff(rec.t_s)
        ok = (
            0.8 <= v.mean() <= 1.2
            and v.max() < 5.0
            and strain.min() >= 0.0
            and strain.max() <= 0.30 + 1e-12
            and abs(rates.mean() - 41.5) <= 2.0
            and abs(rates.std() - 14.2) <= 3.0
        )
        detail = (
            f"|v| mean {v.mean():.2f} max {v.max():.2f}, "
            f"rate {rates.mean():.1f}+-{rates.std():.1f} Hz"
        )
        return ok, detail

    _run(capsys, 11, "trajectory velocity/strain and timestamp-jitter statistics in band", check)
